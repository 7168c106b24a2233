//! The metrics regression sentinel (`experiments diff`): a
//! dependency-free JSON diff over two `--metrics-out` documents.
//!
//! The baseline document may embed its own gating policy in a top-level
//! `"tolerances"` object mapping a *path substring* to a relative
//! tolerance: `{"default": 0.0, "wall": -1.0}`. For each numeric leaf
//! the longest matching substring wins; a negative tolerance excludes
//! the leaf from gating entirely (host-dependent fields); the
//! `"default"` entry covers everything else (0 when absent — the
//! simulator is deterministic, so exact equality is the natural
//! default). The `"tolerances"` object itself is never compared.

use std::collections::BTreeMap;

use rfp_stats::TextTable;

/// A parsed JSON value. Numbers are `f64` (the metrics documents only
/// carry counters well inside the 2^53 exact-integer range).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number
    Num(f64),
    /// A string (unescaped)
    Str(String),
    /// An array
    Arr(Vec<Json>),
    /// An object, in document order
    Obj(Vec<(String, Json)>),
}

/// Deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, so an unbounded input could overflow the
/// stack; every document this workspace writes nests fewer than ten.
const MAX_JSON_DEPTH: usize = 128;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn lit(&mut self, s: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(s.as_bytes()) {
            self.i += s.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.i) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(&open @ (b'[' | b'{')) => {
                if self.depth == MAX_JSON_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_JSON_DEPTH}")));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = *self.b.get(self.i).ok_or_else(|| self.err("bad escape"))?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.i += 4;
                            // Surrogate pairs don't occur in our documents;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through unchanged.
                    let start = self.i;
                    self.i += 1;
                    while self.i < self.b.len() && self.b[self.i] & 0xc0 == 0x80 {
                        self.i += 1;
                    }
                    let s = std::str::from_utf8(&self.b[start..self.i])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while let Some(&c) = self.b.get(self.i) {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut out = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            let val = self.value()?;
            out.push((key, val));
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// The first syntax error with its byte offset, including arrays or
/// objects nested more than 128 deep.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: s.as_bytes(),
        i: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

/// Flattens a document into `path -> scalar` leaves, with `.key` for
/// object members and `[i]` for array elements. Empty containers
/// flatten to a single `Json::Null` leaf so a container that vanishes
/// still shows up as a missing path.
pub fn flatten(v: &Json) -> BTreeMap<String, Json> {
    let mut out = BTreeMap::new();
    walk(v, String::new(), &mut out);
    out
}

fn walk(v: &Json, path: String, out: &mut BTreeMap<String, Json>) {
    match v {
        Json::Obj(members) if !members.is_empty() => {
            for (k, child) in members {
                let p = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                walk(child, p, out);
            }
        }
        Json::Arr(items) if !items.is_empty() => {
            for (i, child) in items.iter().enumerate() {
                walk(child, format!("{path}[{i}]"), out);
            }
        }
        Json::Obj(_) | Json::Arr(_) => {
            out.insert(path, Json::Null);
        }
        scalar => {
            out.insert(path, scalar.clone());
        }
    }
}

/// One gating failure: a leaf outside tolerance, of the wrong kind, or
/// present on only one side.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Flattened leaf path, e.g. `workloads[3].metrics.load_use_latency[2]`.
    pub path: String,
    /// Baseline-side rendering (`-` when the leaf is new).
    pub baseline: String,
    /// Candidate-side rendering (`-` when the leaf vanished).
    pub candidate: String,
    /// What went wrong, human-readable.
    pub detail: String,
}

/// The sentinel's verdict over one baseline/candidate pair.
#[derive(Debug, Clone, Default)]
pub struct DiffOutcome {
    /// Leaves compared (including ones that passed).
    pub checked: usize,
    /// Leaves excluded by a negative tolerance.
    pub ignored: usize,
    /// Everything outside tolerance, in path order.
    pub violations: Vec<Violation>,
}

impl DiffOutcome {
    /// True when the candidate is within tolerance everywhere.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the verdict as a report: a violations table (when any)
    /// plus a one-line summary.
    pub fn render(&self) -> String {
        let summary = format!(
            "checked {} leaves, ignored {}: {}",
            self.checked,
            self.ignored,
            if self.clean() {
                "no regressions".to_string()
            } else {
                format!("{} violation(s)", self.violations.len())
            }
        );
        if self.clean() {
            return summary;
        }
        let mut t = TextTable::new(&["path", "baseline", "candidate", "detail"]);
        for v in &self.violations {
            t.row(&[&v.path, &v.baseline, &v.candidate, &v.detail]);
        }
        format!("{}\n{summary}", t.render())
    }
}

fn scalar_text(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => format!("{n}"),
        Json::Str(s) => s.clone(),
        Json::Arr(_) | Json::Obj(_) => unreachable!("flatten only yields scalars"),
    }
}

/// Splits the baseline document into its gating policy and the gated
/// payload: the top-level `"tolerances"` object (substring -> relative
/// tolerance) is extracted and removed before flattening.
fn split_tolerances(doc: Json) -> (Json, Vec<(String, f64)>) {
    let Json::Obj(members) = doc else {
        return (doc, Vec::new());
    };
    let mut tolerances = Vec::new();
    let mut rest = Vec::with_capacity(members.len());
    for (k, v) in members {
        if k == "tolerances" {
            if let Json::Obj(entries) = &v {
                for (pat, tol) in entries {
                    if let Json::Num(t) = tol {
                        tolerances.push((pat.clone(), *t));
                    }
                }
            }
            continue;
        }
        rest.push((k, v));
    }
    (Json::Obj(rest), tolerances)
}

/// The tolerance governing `path`: the longest substring match wins;
/// `"default"` (or exact 0) otherwise.
fn tol_for(path: &str, tolerances: &[(String, f64)]) -> f64 {
    let mut best: Option<(usize, f64)> = None;
    let mut default = 0.0;
    for (pat, tol) in tolerances {
        if pat == "default" {
            default = *tol;
        } else if path.contains(pat.as_str()) && best.is_none_or(|(n, _)| pat.len() >= n) {
            best = Some((pat.len(), *tol));
        }
    }
    best.map_or(default, |(_, t)| t)
}

/// Parses a standalone tolerances document — either a bare
/// `{pattern: tol}` object or one wrapping it in a top-level
/// `"tolerances"` member (so a refreshed baseline also works as an
/// overlay). Non-numeric entries are skipped.
fn parse_tolerances_doc(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = parse_json(text).map_err(|e| format!("tolerances: {e}"))?;
    let Json::Obj(members) = doc else {
        return Err("tolerances: document must be a JSON object".to_string());
    };
    let entries = match members.iter().find(|(k, _)| k == "tolerances") {
        Some((_, Json::Obj(inner))) => inner.clone(),
        _ => members,
    };
    Ok(entries
        .into_iter()
        .filter_map(|(k, v)| match v {
            Json::Num(t) => Some((k, t)),
            _ => None,
        })
        .collect())
}

/// Diffs a candidate metrics document against a baseline carrying its
/// own tolerances (see the module docs). Returns `Err` only when a
/// document fails to parse; regressions come back as violations.
pub fn diff_metrics(baseline_text: &str, candidate_text: &str) -> Result<DiffOutcome, String> {
    diff_metrics_with(baseline_text, candidate_text, None)
}

/// [`diff_metrics`] with an optional external tolerances overlay
/// (`experiments diff --tolerances FILE`): the overlay's entries are
/// appended after the baseline's embedded ones, so on equal pattern
/// length — including `"default"` — the overlay wins. This is how the
/// sampling accuracy gate reuses a full-fidelity baseline generated with
/// zero embedded tolerance: `baselines/sampling_tolerances.json` relaxes
/// exactly the metrics the sampler extrapolates.
///
/// # Errors
///
/// Returns `Err` only when a document fails to parse; regressions come
/// back as violations.
pub fn diff_metrics_with(
    baseline_text: &str,
    candidate_text: &str,
    overlay_text: Option<&str>,
) -> Result<DiffOutcome, String> {
    let baseline = parse_json(baseline_text).map_err(|e| format!("baseline: {e}"))?;
    let candidate = parse_json(candidate_text).map_err(|e| format!("candidate: {e}"))?;
    let (baseline, mut tolerances) = split_tolerances(baseline);
    if let Some(text) = overlay_text {
        tolerances.extend(parse_tolerances_doc(text)?);
    }
    // A candidate generated with `--metrics-out` carries no tolerances,
    // but a refreshed baseline re-used as candidate does; strip both.
    let (candidate, _) = split_tolerances(candidate);
    let old = flatten(&baseline);
    let new = flatten(&candidate);

    let mut out = DiffOutcome::default();
    for (path, o) in &old {
        let tol = tol_for(path, &tolerances);
        if tol < 0.0 {
            out.ignored += 1;
            continue;
        }
        out.checked += 1;
        match new.get(path) {
            None => out.violations.push(Violation {
                path: path.clone(),
                baseline: scalar_text(o),
                candidate: "-".to_string(),
                detail: "missing in candidate".to_string(),
            }),
            Some(n) => match (o, n) {
                (Json::Num(a), Json::Num(b)) => {
                    // Relative error with an absolute floor so counters
                    // near zero don't divide by ~0.
                    let rel = (b - a).abs() / a.abs().max(1.0);
                    if rel > tol {
                        out.violations.push(Violation {
                            path: path.clone(),
                            baseline: format!("{a}"),
                            candidate: format!("{b}"),
                            detail: format!("rel diff {rel:.4} > tol {tol}"),
                        });
                    }
                }
                (a, b) if a != b => out.violations.push(Violation {
                    path: path.clone(),
                    baseline: scalar_text(a),
                    candidate: scalar_text(b),
                    detail: "value changed".to_string(),
                }),
                _ => {}
            },
        }
    }
    for (path, n) in &new {
        if old.contains_key(path) {
            continue;
        }
        if tol_for(path, &tolerances) < 0.0 {
            out.ignored += 1;
            continue;
        }
        out.checked += 1;
        out.violations.push(Violation {
            path: path.clone(),
            baseline: "-".to_string(),
            candidate: scalar_text(n),
            detail: "not in baseline (refresh it?)".to_string(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
        "config_key": "00ab",
        "len": 2000,
        "aggregate": {"hist": [1, 2, 3], "total": 6},
        "tolerances": {"default": 0.0, "aggregate.total": 0.5, "config_key": -1.0}
    }"#;

    #[test]
    fn identical_documents_are_clean() {
        let out = diff_metrics(BASE, BASE).unwrap();
        assert!(out.clean(), "{:?}", out.violations);
        assert!(out.checked > 0);
        assert_eq!(out.ignored, 1, "config_key excluded on each side once");
        assert!(out.render().contains("no regressions"));
    }

    #[test]
    fn out_of_tolerance_number_is_a_violation() {
        let new = BASE.replace("[1, 2, 3]", "[1, 2, 4]");
        let out = diff_metrics(BASE, &new).unwrap();
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].path, "aggregate.hist[2]");
        assert!(out.render().contains("rel diff"));
    }

    #[test]
    fn within_tolerance_number_passes() {
        // total 6 -> 8 is rel 0.33 under the 0.5 tolerance on its path.
        let new = BASE.replace("\"total\": 6", "\"total\": 8");
        assert!(diff_metrics(BASE, &new).unwrap().clean());
        // ...but 6 -> 10 is rel 0.67, over it.
        let worse = BASE.replace("\"total\": 6", "\"total\": 10");
        assert!(!diff_metrics(BASE, &worse).unwrap().clean());
    }

    #[test]
    fn ignored_paths_never_gate() {
        let new = BASE.replace("00ab", "ffff");
        assert!(diff_metrics(BASE, &new).unwrap().clean());
    }

    #[test]
    fn missing_and_new_leaves_are_violations() {
        let new = BASE.replace(", \"total\": 6", ", \"fresh\": 1");
        let out = diff_metrics(BASE, &new).unwrap();
        let details: Vec<&str> = out.violations.iter().map(|v| v.detail.as_str()).collect();
        assert!(details.contains(&"missing in candidate"));
        assert!(details.iter().any(|d| d.starts_with("not in baseline")));
    }

    #[test]
    fn longest_substring_tolerance_wins() {
        let tols = vec![
            ("default".to_string(), 0.0),
            ("aggregate".to_string(), -1.0),
            ("aggregate.total".to_string(), 0.25),
        ];
        assert_eq!(tol_for("aggregate.total", &tols), 0.25);
        assert_eq!(tol_for("aggregate.hist[0]", &tols), -1.0);
        assert_eq!(tol_for("len", &tols), 0.0);
    }

    #[test]
    fn overlay_tolerances_extend_and_override_the_baseline() {
        // total 6 -> 10 is rel 0.67: over the embedded 0.5 tolerance...
        let new = BASE.replace("\"total\": 6", "\"total\": 10");
        assert!(!diff_metrics(BASE, &new).unwrap().clean());
        // ...but a bare-object overlay can relax it.
        let overlay = r#"{"aggregate.total": 0.8}"#;
        assert!(diff_metrics_with(BASE, &new, Some(overlay))
            .unwrap()
            .clean());
        // The wrapped form works too, and an equal-length pattern from
        // the overlay overrides the embedded one (6 -> 8 is rel 0.33,
        // inside the embedded 0.5 but outside the overlay's 0.1).
        let mild = BASE.replace("\"total\": 6", "\"total\": 8");
        assert!(diff_metrics(BASE, &mild).unwrap().clean());
        let wrapped = r#"{"tolerances": {"aggregate.total": 0.1}}"#;
        assert!(!diff_metrics_with(BASE, &mild, Some(wrapped))
            .unwrap()
            .clean());
        // A malformed overlay is a usage error, not a pass.
        assert!(diff_metrics_with(BASE, &mild, Some("[1]")).is_err());
    }

    #[test]
    fn parser_round_trips_the_shapes_we_emit() {
        let doc = r#"{"s":"a\"b\\cA","n":-1.5e3,"t":true,"f":false,"z":null,
                      "arr":[[],{}],"nested":{"k":[0,1]}}"#;
        let v = parse_json(doc).unwrap();
        let flat = flatten(&v);
        assert_eq!(flat.get("s"), Some(&Json::Str("a\"b\\cA".to_string())));
        assert_eq!(flat.get("n"), Some(&Json::Num(-1500.0)));
        assert_eq!(flat.get("arr[0]"), Some(&Json::Null), "empty array leaf");
        assert_eq!(flat.get("nested.k[1]"), Some(&Json::Num(1.0)));
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("{\"a\":").is_err());
    }

    #[test]
    fn nesting_is_capped_with_a_named_error() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"a\":".repeat(n) + "1" + &"}".repeat(n);
        let too_deep = |at: usize| Err(format!("nesting deeper than 128 at byte {at}"));
        assert!(parse_json(&arrays(MAX_JSON_DEPTH)).is_ok());
        assert!(parse_json(&objects(MAX_JSON_DEPTH)).is_ok());
        assert_eq!(parse_json(&arrays(MAX_JSON_DEPTH + 1)), too_deep(128));
        assert_eq!(parse_json(&objects(MAX_JSON_DEPTH + 1)), too_deep(640));
        // Deep enough to overflow the stack without the cap.
        assert_eq!(parse_json(&"[".repeat(100_000)), too_deep(128));
    }
}
