//! `experiments report`: folds the pipeline's JSON documents —
//! metrics, profile, sampling report/error, engine trace and telemetry
//! — into one self-contained static HTML dashboard.
//!
//! The page is hand-rolled HTML with inline SVG charts: no scripts, no
//! external assets, opens offline. Output is byte-deterministic given
//! the same input documents — every map iterated is ordered, every
//! float uses a fixed format, and nothing stamps a timestamp — so CI
//! can diff two renders of the same sweep and the determinism tests can
//! compare bytes across runs.

use crate::diff::{parse_json, Json};

/// Raw input documents for the dashboard, each optional: a section
/// whose document is absent renders a placeholder instead of data, so
/// the report degrades gracefully to whatever the sweep produced.
#[derive(Debug, Clone, Default)]
pub struct ReportInputs {
    /// `experiments obs --metrics-out` document.
    pub metrics: Option<String>,
    /// `experiments profile --profile-out` document.
    pub profile: Option<String>,
    /// `experiments sampling-report` document (per-workload IPC/coverage).
    pub sampling_report: Option<String>,
    /// `experiments sampling-error` document (full-vs-sampled error).
    pub sampling_error: Option<String>,
    /// Engine Chrome-trace document (`--engine-trace-out`).
    pub engine_trace: Option<String>,
    /// `--telemetry-out` JSONL stream.
    pub telemetry: Option<String>,
}

/// RFP drop reasons in `rfp_drops_over_time` column order.
const DROP_REASON_LABELS: [&str; 5] = [
    "load-first",
    "tlb-miss",
    "queue-full",
    "l1-miss",
    "squashed",
];

/// Fixed chart palette, cycled by series index.
const PALETTE: [&str; 8] = [
    "#4878cf", "#ee854a", "#6acc65", "#d65f5f", "#956cb4", "#8c613c", "#dc7ec0", "#797979",
];

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders a JSON number the way the documents wrote it: integers bare,
/// fractions with six decimals (every producer in this workspace uses
/// `{:.6}` or integer formatting, so this round-trips deterministically).
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

fn get<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
    match v {
        Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn num(v: &Json) -> Option<f64> {
    match v {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

fn str_of(v: &Json) -> Option<&str> {
    match v {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn arr(v: &Json) -> Option<&[Json]> {
    match v {
        Json::Arr(items) => Some(items),
        _ => None,
    }
}

fn obj(v: &Json) -> Option<&[(String, Json)]> {
    match v {
        Json::Obj(members) => Some(members),
        _ => None,
    }
}

/// Horizontal bar chart: one row per `(label, value)`, widths scaled to
/// the max value. Deterministic: fixed geometry, `{:.2}` coordinates.
fn bar_chart(rows: &[(String, f64)], unit: &str) -> String {
    if rows.is_empty() {
        return "<p class=\"placeholder\">no data</p>".to_string();
    }
    let max = rows
        .iter()
        .map(|(_, v)| *v)
        .fold(0.0f64, f64::max)
        .max(1e-12);
    let row_h = 22.0;
    let label_w = 180.0;
    let bar_w = 420.0;
    let height = row_h * rows.len() as f64;
    let mut svg = format!(
        "<svg class=\"chart\" viewBox=\"0 0 {:.2} {:.2}\" width=\"{:.0}\" height=\"{:.0}\" \
         role=\"img\">",
        label_w + bar_w + 90.0,
        height,
        label_w + bar_w + 90.0,
        height
    );
    for (i, (label, v)) in rows.iter().enumerate() {
        let y = row_h * i as f64;
        let w = bar_w * v / max;
        let color = PALETTE[i % PALETTE.len()];
        svg.push_str(&format!(
            "<text x=\"{:.2}\" y=\"{:.2}\" text-anchor=\"end\" class=\"lbl\">{}</text>\
             <rect x=\"{:.2}\" y=\"{:.2}\" width=\"{:.2}\" height=\"{:.2}\" fill=\"{}\"/>\
             <text x=\"{:.2}\" y=\"{:.2}\" class=\"val\">{}{}</text>",
            label_w - 6.0,
            y + row_h - 7.0,
            esc(label),
            label_w,
            y + 3.0,
            w,
            row_h - 8.0,
            color,
            label_w + w + 6.0,
            y + row_h - 7.0,
            esc(&fmt_num(*v)),
            esc(unit),
        ));
    }
    svg.push_str("</svg>");
    svg
}

/// Stacked area chart over interval series: `series[bucket] = (label,
/// per-interval values)`. Each interval column is normalized to its own
/// total, so the chart reads as share-of-CPI over time.
fn stacked_area(series: &[(String, Vec<f64>)]) -> String {
    let n = series.first().map_or(0, |(_, v)| v.len());
    if n == 0 {
        return "<p class=\"placeholder\">no data</p>".to_string();
    }
    let (w, h) = (560.0, 180.0);
    let dx = w / (n.max(2) - 1) as f64;
    let totals: Vec<f64> = (0..n)
        .map(|i| series.iter().map(|(_, v)| v[i]).sum::<f64>().max(1e-12))
        .collect();
    let mut svg = format!(
        "<svg class=\"chart\" viewBox=\"0 0 {w:.0} {h:.0}\" width=\"{w:.0}\" height=\"{h:.0}\" \
         role=\"img\">"
    );
    let mut base = vec![0.0f64; n];
    for (si, (label, values)) in series.iter().enumerate() {
        let top: Vec<f64> = (0..n).map(|i| base[i] + values[i] / totals[i]).collect();
        let mut points = String::new();
        for (i, t) in top.iter().enumerate() {
            points.push_str(&format!("{:.2},{:.2} ", dx * i as f64, h * (1.0 - t)));
        }
        for i in (0..n).rev() {
            points.push_str(&format!("{:.2},{:.2} ", dx * i as f64, h * (1.0 - base[i])));
        }
        svg.push_str(&format!(
            "<polygon points=\"{}\" fill=\"{}\" fill-opacity=\"0.85\"><title>{}</title></polygon>",
            points.trim_end(),
            PALETTE[si % PALETTE.len()],
            esc(label),
        ));
        base = top;
    }
    svg.push_str("</svg>");
    // Legend, in series order.
    svg.push_str("<p class=\"legend\">");
    for (si, (label, _)) in series.iter().enumerate() {
        svg.push_str(&format!(
            "<span><span class=\"swatch\" style=\"background:{}\"></span>{}</span> ",
            PALETTE[si % PALETTE.len()],
            esc(label),
        ));
    }
    svg.push_str("</p>");
    svg
}

fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::from("<table><thead><tr>");
    for h in headers {
        out.push_str(&format!("<th>{}</th>", esc(h)));
    }
    out.push_str("</tr></thead><tbody>");
    for row in rows {
        out.push_str("<tr>");
        for cell in row {
            out.push_str(&format!("<td>{}</td>", esc(cell)));
        }
        out.push_str("</tr>");
    }
    out.push_str("</tbody></table>");
    out
}

fn section(anchor: &str, title: &str, body: &str) -> String {
    format!(
        "<section id=\"{anchor}\"><h2>{}</h2>{body}</section>",
        esc(title)
    )
}

fn placeholder(what: &str) -> String {
    format!(
        "<p class=\"placeholder\">no {} document provided</p>",
        esc(what)
    )
}

fn parse_doc(name: &str, text: &str) -> Result<Json, String> {
    parse_json(text).map_err(|e| format!("{name}: {e}"))
}

/// Workloads section: coverage and IPC bars from the sampling-report
/// document (the per-workload summary that carries IPC directly).
fn workloads_section(doc: Option<&Json>) -> String {
    let Some(doc) = doc else {
        return placeholder("sampling-report");
    };
    let rows = get(doc, "workloads").and_then(arr).unwrap_or(&[]);
    let mut ipc = Vec::new();
    let mut cov = Vec::new();
    let mut tab = Vec::new();
    for w in rows {
        let name = get(w, "workload")
            .and_then(str_of)
            .unwrap_or("?")
            .to_string();
        let wi = get(w, "ipc").and_then(num).unwrap_or(0.0);
        let wc = get(w, "coverage").and_then(num).unwrap_or(0.0);
        let cyc = get(w, "cycles").and_then(num).unwrap_or(0.0);
        ipc.push((name.clone(), wi));
        cov.push((name.clone(), wc));
        tab.push(vec![name, fmt_num(wi), fmt_num(wc), fmt_num(cyc)]);
    }
    format!(
        "<h3>IPC</h3>{}<h3>RFP coverage</h3>{}{}",
        bar_chart(&ipc, ""),
        bar_chart(&cov, ""),
        table(&["workload", "ipc", "coverage", "cycles"], &tab),
    )
}

/// CPI section: whole-run stack shares plus the interval stacked-area
/// chart, from the metrics document's `aggregate_cpi`.
fn cpi_section(doc: Option<&Json>) -> String {
    let Some(cpi) = doc.and_then(|d| get(d, "aggregate_cpi")) else {
        return placeholder("metrics");
    };
    let stack = get(cpi, "stack").and_then(obj).unwrap_or(&[]);
    let total: f64 = stack.iter().filter_map(|(_, v)| num(v)).sum();
    let shares: Vec<(String, f64)> = stack
        .iter()
        .filter_map(|(k, v)| num(v).map(|n| (k.clone(), n / total.max(1e-12))))
        .collect();
    let intervals = get(cpi, "intervals").and_then(arr).unwrap_or(&[]);
    let series: Vec<(String, Vec<f64>)> = stack
        .iter()
        .map(|(k, _)| {
            let vals = intervals
                .iter()
                .map(|iv| get(iv, k).and_then(num).unwrap_or(0.0))
                .collect();
            (k.clone(), vals)
        })
        .collect();
    format!(
        "<h3>Whole-run stack share</h3>{}<h3>Stack over measured time</h3>{}",
        bar_chart(&shares, ""),
        stacked_area(&series),
    )
}

/// Funnel section: RFP drops by reason (summed over time windows) from
/// the metrics document's aggregate observability block.
fn funnel_section(doc: Option<&Json>) -> String {
    let Some(aggregate) = doc.and_then(|d| get(d, "aggregate")) else {
        return placeholder("metrics");
    };
    let windows = get(aggregate, "rfp_drops_over_time")
        .and_then(arr)
        .unwrap_or(&[]);
    let mut by_reason = [0.0f64; DROP_REASON_LABELS.len()];
    for w in windows {
        if let Some(cells) = arr(w) {
            for (slot, cell) in by_reason.iter_mut().zip(cells) {
                *slot += num(cell).unwrap_or(0.0);
            }
        }
    }
    let rows: Vec<(String, f64)> = DROP_REASON_LABELS
        .iter()
        .zip(by_reason)
        .map(|(l, v)| (l.to_string(), v))
        .collect();
    bar_chart(&rows, "")
}

/// Profile section: top offender sites by attributed stall slots.
fn profile_section(doc: Option<&Json>) -> String {
    let Some(profile) = doc.and_then(|d| get(d, "profile")) else {
        return placeholder("profile");
    };
    let sites = get(profile, "sites").and_then(obj).unwrap_or(&[]);
    let mut rows: Vec<(String, f64, Vec<String>)> = sites
        .iter()
        .map(|(site, s)| {
            let g = |k: &str| get(s, k).and_then(num).unwrap_or(0.0);
            let stalls = g("stall_slots");
            let cells = vec![
                site.clone(),
                fmt_num(g("loads")),
                fmt_num(g("misses")),
                fmt_num(g("injected")),
                fmt_num(g("useful_fully_hidden")),
                fmt_num(g("useful_late")),
                fmt_num(g("wrong_addr")),
                fmt_num(stalls),
            ];
            (site.clone(), stalls, cells)
        })
        .collect();
    // Stable top-offender order: stall slots desc, site key asc.
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
    rows.truncate(10);
    let site_count = get(profile, "site_count").and_then(num).unwrap_or(0.0);
    let tab: Vec<Vec<String>> = rows.into_iter().map(|(_, _, c)| c).collect();
    format!(
        "<p>{} sites profiled; top {} by attributed stall slots.</p>{}",
        fmt_num(site_count),
        tab.len(),
        table(
            &[
                "site",
                "loads",
                "misses",
                "injected",
                "hidden",
                "late",
                "wrong-addr",
                "stall slots"
            ],
            &tab,
        ),
    )
}

/// Sampling section: per-metric relative-error quantiles from the
/// sampling-error document.
fn sampling_section(doc: Option<&Json>) -> String {
    let Some(doc) = doc else {
        return placeholder("sampling-error");
    };
    let metrics = get(doc, "metrics").and_then(obj).unwrap_or(&[]);
    let tab: Vec<Vec<String>> = metrics
        .iter()
        .map(|(m, q)| {
            let g = |k: &str| get(q, k).and_then(num).map_or("?".into(), fmt_num);
            vec![m.clone(), g("p50"), g("p95"), g("max")]
        })
        .collect();
    let worst_metric = get(doc, "worst_metric").and_then(str_of).unwrap_or("?");
    let worst = get(doc, "worst_rel_error").and_then(num).unwrap_or(0.0);
    format!(
        "<p>worst relative error: {} ({})</p>{}",
        fmt_num(worst),
        esc(worst_metric),
        table(&["metric", "p50", "p95", "max"], &tab),
    )
}

/// Engine section: the `engineMetrics` summary embedded in the engine
/// Chrome trace's `otherData`, plus the telemetry stream's job count.
fn engine_section(trace: Option<&Json>, telemetry: Option<&str>) -> String {
    let mut out = String::new();
    if let Some(m) = trace
        .and_then(|t| get(t, "otherData"))
        .and_then(|o| get(o, "engineMetrics"))
    {
        let jobs = get(m, "jobs").and_then(num).unwrap_or(0.0);
        out.push_str(&format!("<p>{} grid jobs.</p>", fmt_num(jobs)));
        let arms: Vec<(String, f64)> = get(m, "jobs_by_warm")
            .and_then(obj)
            .unwrap_or(&[])
            .iter()
            .filter_map(|(k, v)| num(v).map(|n| (k.clone(), n)))
            .collect();
        out.push_str("<h3>Jobs by warm arm</h3>");
        out.push_str(&bar_chart(&arms, ""));
        if let Some(pool) = get(m, "warm_pool") {
            let g = |k: &str| get(pool, k).and_then(num).map_or("?".into(), fmt_num);
            out.push_str("<h3>Warm pool</h3>");
            out.push_str(&table(
                &[
                    "snapshot hits",
                    "snapshot misses",
                    "hit rate",
                    "transplants",
                    "trace builds",
                ],
                &[vec![
                    g("snapshot_hits"),
                    g("snapshot_misses"),
                    g("snapshot_hit_rate"),
                    g("transplants"),
                    g("trace_builds"),
                ]],
            ));
        }
        if let Some(store) = get(m, "store").and_then(obj) {
            let tab: Vec<Vec<String>> = store
                .iter()
                .filter_map(|(tier, t)| {
                    obj(t)?;
                    let g = |k: &str| get(t, k).and_then(num).map_or("?".into(), fmt_num);
                    Some(vec![
                        tier.clone(),
                        g("hits"),
                        g("misses"),
                        g("hit_rate"),
                        g("bytes_read"),
                        g("bytes_written"),
                    ])
                })
                .collect();
            out.push_str("<h3>Persistent store</h3>");
            out.push_str(&table(
                &[
                    "tier",
                    "hits",
                    "misses",
                    "hit rate",
                    "bytes read",
                    "bytes written",
                ],
                &tab,
            ));
        }
        if let Some(timing) = get(m, "timing") {
            let g = |k: &str| get(timing, k).and_then(num).map_or("?".into(), fmt_num);
            out.push_str("<h3>Host timing (non-deterministic)</h3>");
            out.push_str(&table(
                &["workers", "steals", "wall nanos"],
                &[vec![g("workers"), g("steals"), g("wall_nanos")]],
            ));
        }
    } else {
        out.push_str(&placeholder("engine-trace"));
    }
    if let Some(text) = telemetry {
        let mut jobs = 0usize;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            if let Ok(v) = parse_json(line) {
                if get(&v, "job").is_some() {
                    jobs += 1;
                }
            }
        }
        out.push_str(&format!("<p>{jobs} telemetry rows.</p>"));
    }
    out
}

const STYLE: &str = "body{font:14px/1.45 system-ui,sans-serif;margin:0;color:#222}\
 header{background:#1b2a4a;color:#fff;padding:14px 24px}\
 header h1{margin:0;font-size:20px}\
 nav{padding:6px 24px;background:#eef1f7;position:sticky;top:0}\
 nav a{margin-right:14px;color:#1b2a4a;text-decoration:none}\
 main{max-width:960px;margin:0 auto;padding:8px 24px 48px}\
 section{margin-top:28px;border-top:1px solid #ddd;padding-top:8px}\
 h2{font-size:17px}h3{font-size:14px;margin-bottom:4px}\
 table{border-collapse:collapse;margin:8px 0}\
 th,td{border:1px solid #ccc;padding:3px 9px;text-align:right}\
 th:first-child,td:first-child{text-align:left}\
 .placeholder{color:#888;font-style:italic}\
 .chart{display:block;margin:6px 0}\
 .chart .lbl{font-size:11px}.chart .val{font-size:11px;fill:#555}\
 .legend span{margin-right:12px;font-size:12px}\
 .swatch{display:inline-block;width:10px;height:10px;margin-right:4px}";

/// Sections in page order: `(anchor, title)`.
const SECTIONS: [(&str, &str); 7] = [
    ("overview", "Overview"),
    ("workloads", "Workloads"),
    ("cpi", "CPI stacks"),
    ("funnel", "RFP drop funnel"),
    ("profile", "Top offender sites"),
    ("sampling", "Sampling accuracy"),
    ("engine", "Engine observability"),
];

/// Renders the full dashboard. Fails only on a present-but-unparseable
/// input document (a truncated file is a pipeline bug worth surfacing,
/// not a placeholder).
///
/// # Errors
///
/// The name of the offending document and the parse error.
pub fn render_report(inputs: &ReportInputs) -> Result<String, String> {
    let parse_opt = |name: &str, text: &Option<String>| -> Result<Option<Json>, String> {
        text.as_deref().map(|t| parse_doc(name, t)).transpose()
    };
    let metrics = parse_opt("metrics", &inputs.metrics)?;
    let profile = parse_opt("profile", &inputs.profile)?;
    let sampling_report = parse_opt("sampling-report", &inputs.sampling_report)?;
    let sampling_error = parse_opt("sampling-error", &inputs.sampling_error)?;
    let engine_trace = parse_opt("engine-trace", &inputs.engine_trace)?;

    let inventory: Vec<Vec<String>> = [
        ("metrics", inputs.metrics.is_some()),
        ("profile", inputs.profile.is_some()),
        ("sampling-report", inputs.sampling_report.is_some()),
        ("sampling-error", inputs.sampling_error.is_some()),
        ("engine-trace", inputs.engine_trace.is_some()),
        ("telemetry", inputs.telemetry.is_some()),
    ]
    .iter()
    .map(|(n, present)| {
        vec![
            n.to_string(),
            if *present { "provided" } else { "—" }.to_string(),
        ]
    })
    .collect();
    let overview = format!(
        "<p>Register-file-prefetch experiment dashboard — static render, \
         no scripts, byte-deterministic for a given set of input \
         documents.</p>{}",
        table(&["document", "status"], &inventory),
    );

    let bodies = [
        overview,
        workloads_section(sampling_report.as_ref()),
        cpi_section(metrics.as_ref()),
        funnel_section(metrics.as_ref()),
        profile_section(profile.as_ref()),
        sampling_section(sampling_error.as_ref()),
        engine_section(engine_trace.as_ref(), inputs.telemetry.as_deref()),
    ];

    let mut nav = String::from("<nav>");
    for (anchor, title) in SECTIONS {
        nav.push_str(&format!("<a href=\"#{anchor}\">{}</a>", esc(title)));
    }
    nav.push_str("</nav>");

    let mut html = String::from(
        "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>rfp experiments report</title>",
    );
    html.push_str(&format!("<style>{STYLE}</style></head><body>"));
    html.push_str("<header><h1>rfp experiments report</h1></header>");
    html.push_str(&nav);
    html.push_str("<main>");
    for ((anchor, title), body) in SECTIONS.iter().zip(&bodies) {
        html.push_str(&section(anchor, title, body));
    }
    html.push_str("</main></body></html>\n");
    Ok(html)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_inputs() -> ReportInputs {
        ReportInputs {
            metrics: Some(
                r#"{"config_key":"00ff","len":100,
                    "aggregate":{"rfp_drops_over_time":[[1,2,3,4,5],[5,4,3,2,1]]},
                    "aggregate_cpi":{"interval_uops":8192,
                        "stack":{"base":10,"mem-dram":5},
                        "intervals":[{"base":6,"mem-dram":2},{"base":4,"mem-dram":3}]}}"#
                    .to_string(),
            ),
            profile: Some(
                r#"{"profile":{"site_count":2,"sites":{
                    "0x10":{"loads":5,"misses":2,"injected":2,"useful_fully_hidden":1,
                            "useful_late":0,"wrong_addr":0,"stall_slots":40},
                    "0x20":{"loads":9,"misses":1,"injected":1,"useful_fully_hidden":0,
                            "useful_late":1,"wrong_addr":0,"stall_slots":90}}}}"#
                    .to_string(),
            ),
            sampling_report: Some(
                r#"{"workloads":[{"workload":"a","ipc":1.5,"coverage":0.25,"cycles":100},
                               {"workload":"b","ipc":2.0,"coverage":0.5,"cycles":50}]}"#
                    .to_string(),
            ),
            sampling_error: Some(
                r#"{"workloads":2,"worst_metric":"ipc","worst_rel_error":0.01,
                    "metrics":{"ipc":{"p50":0.001,"p95":0.005,"max":0.01}}}"#
                    .to_string(),
            ),
            engine_trace: Some(
                r#"{"traceEvents":[],"displayTimeUnit":"ms","otherData":{
                    "engineMetrics":{"schema":2,"jobs":4,"jobs_by_warm":{"fork":3,"straight":1},
                    "warm_pool":{"snapshot_hits":3,"snapshot_misses":1,
                                 "snapshot_hit_rate":0.75,"transplants":0,"trace_builds":1},
                    "store":{"result":{"hits":1,"misses":3,"hit_rate":0.25,
                                       "bytes_read":10,"bytes_written":30},"corrupt":0},
                    "timing":{"workers":2,"steals":1,"wall_nanos":99}}}}"#
                    .to_string(),
            ),
            telemetry: Some(
                "{\"schema\":1,\"job\":0}\n{\"schema\":1,\"job\":1}\n{\"warm_pool\":{}}\n"
                    .to_string(),
            ),
        }
    }

    #[test]
    fn report_is_byte_deterministic() {
        let a = render_report(&sample_inputs()).unwrap();
        let b = render_report(&sample_inputs()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn report_has_every_section_anchor_and_balanced_sections() {
        let html = render_report(&sample_inputs()).unwrap();
        for (anchor, _) in SECTIONS {
            assert!(
                html.contains(&format!("<section id=\"{anchor}\">")),
                "missing section {anchor}"
            );
        }
        assert_eq!(
            html.matches("<section").count(),
            html.matches("</section>").count()
        );
        assert_eq!(
            html.matches("<table").count(),
            html.matches("</table>").count()
        );
        // Data actually landed: top offender site, warm arm, telemetry rows.
        assert!(html.contains("0x20"));
        assert!(html.contains("fork"));
        assert!(html.contains("2 telemetry rows."));
    }

    #[test]
    fn missing_documents_render_placeholders() {
        let html = render_report(&ReportInputs::default()).unwrap();
        assert!(html.contains("no metrics document provided"));
        assert!(html.contains("no engine-trace document provided"));
        assert_eq!(
            html.matches("<section").count(),
            html.matches("</section>").count()
        );
    }

    #[test]
    fn unparseable_document_is_an_error_not_a_placeholder() {
        let inputs = ReportInputs {
            metrics: Some("{truncated".to_string()),
            ..Default::default()
        };
        let err = render_report(&inputs).unwrap_err();
        assert!(err.starts_with("metrics:"), "{err}");
    }

    #[test]
    fn escapes_untrusted_strings() {
        let inputs = ReportInputs {
            sampling_report: Some(
                r#"{"workloads":[{"workload":"<b>&x","ipc":1,"coverage":0,"cycles":1}]}"#
                    .to_string(),
            ),
            ..Default::default()
        };
        let html = render_report(&inputs).unwrap();
        assert!(html.contains("&lt;b&gt;&amp;x"));
        assert!(!html.contains("<b>&x"));
    }
}
