//! The benchmark definition, run documents, and the `compare` verdicts.

use std::fmt::Write as _;
use std::path::Path;

use icicle::obs::Json;

use crate::stats;

/// `BENCHMARK.json` is the single source of metric names, units,
/// directions and bounds.
const DEFINITION: &str = include_str!("../../BENCHMARK.json");
/// The `sim_digest` of each workload at seed 1.
const DIGESTS: &str = include_str!("../digests.json");

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, PartialEq, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

pub struct Definition {
    /// Seconds one run measures for.
    pub run_seconds: u64,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

/// Parses the committed `BENCHMARK.json`.
pub fn definition() -> Definition {
    let doc = Json::parse(DEFINITION).expect("BENCHMARK.json is valid JSON");
    let metrics = |key: &str| -> Vec<MetricDef> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("BENCHMARK.json lists its metrics")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("metric fields are strings")
                };
                MetricDef {
                    name: s("name").to_string(),
                    unit: s("unit").to_string(),
                    better: if s("better") == "higher" {
                        Better::Higher
                    } else {
                        Better::Lower
                    },
                    bound: m.get("bound").and_then(Json::as_f64),
                }
            })
            .collect()
    };
    Definition {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .expect("BENCHMARK.json sets run_seconds"),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    }
}

/// The committed seed-1 digest of `workload`, as 16 hex digits.
pub fn committed_digest(workload: &str) -> Option<String> {
    Json::parse(DIGESTS)
        .expect("digests.json is valid JSON")
        .get(workload)
        .and_then(Json::as_str)
        .map(str::to_string)
}

/// FNV-1a over `bytes`, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h = icicle::campaign::fingerprint::Fnv1a::default();
    h.write(bytes);
    format!("{:016x}", h.finish())
}

/// Compact JSON with every float at full precision (the workspace's
/// canonical writer rounds floats to six decimals).
pub fn render(j: &Json) -> String {
    let mut out = String::new();
    write_json(j, &mut out);
    out
}

fn write_json(j: &Json, out: &mut String) {
    match j {
        Json::Num(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(item, out);
            }
            out.push(']');
        }
        Json::Object(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&Json::Str(k.clone()).render_compact());
                out.push(':');
                write_json(v, out);
            }
            out.push('}');
        }
        scalar => out.push_str(&scalar.render_compact()),
    }
}

/// The parts of a run document that `compare` reads.
#[derive(Clone, PartialEq, Debug)]
pub struct RunSummary {
    pub workload: String,
    pub seed: u64,
    pub metrics: Vec<(String, f64)>,
    pub digest: String,
}

impl RunSummary {
    pub fn from_json(doc: &Json) -> Result<RunSummary, String> {
        let metrics = match doc.get("metrics") {
            Some(Json::Object(pairs)) => pairs
                .iter()
                .map(|(k, v)| {
                    v.get("value")
                        .and_then(Json::as_f64)
                        .map(|x| (k.clone(), x))
                        .ok_or_else(|| format!("metric `{k}` has no value"))
                })
                .collect::<Result<_, _>>()?,
            _ => return Err("no `metrics` object".into()),
        };
        Ok(RunSummary {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("no `workload`")?
                .to_string(),
            seed: doc.get("seed").and_then(Json::as_u64).ok_or("no `seed`")?,
            metrics,
            digest: doc
                .get("sim_digest")
                .and_then(Json::as_str)
                .ok_or("no `sim_digest`")?
                .to_string(),
        })
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

/// Reads every untraced run document (`*.json`) in `dir`.
pub fn read_runs(dir: &Path) -> Result<Vec<RunSummary>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut runs = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        runs.push(RunSummary::from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    Ok(runs)
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric of one workload, side A (baseline) against side B.
#[derive(Clone, PartialEq, Debug)]
pub struct Row {
    pub a: [f64; 3],
    pub b: [f64; 3],
    /// Median of B over median of A.
    pub ratio: f64,
    /// Pairs (runs matched in seed order) where B reads better.
    pub won: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Judges B against A for one metric. B is better when it wins nine
/// tenths of the pairs and the medians differ by more than A's own
/// quartile spread, or when every B run beats every A run; unresolved
/// when either side's spread exceeds the bound; worse when B's median is
/// worse than A's by more than the bound.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Row {
    let bound = def.bound.unwrap_or(0.0);
    let qa = stats::quartiles(a);
    let qb = stats::quartiles(b);
    let beats = |x: f64, y: f64| match def.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let pairs = a.len().min(b.len());
    let won = (0..pairs).filter(|&i| beats(b[i], a[i])).count();
    let all_beat = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    // Positive when B's median is worse, as a share of A's.
    let worse_by = match def.better {
        Better::Lower => (qb[1] - qa[1]) / qa[1].abs(),
        Better::Higher => (qa[1] - qb[1]) / qa[1].abs(),
    };
    let verdict = if all_beat
        || (beats(qb[1], qa[1]) && 10 * won >= 9 * pairs && (qb[1] - qa[1]).abs() > qa[2] - qa[0])
    {
        Verdict::Better
    } else if stats::spread(a) > bound || stats::spread(b) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    };
    Row {
        a: qa,
        b: qb,
        ratio: qb[1] / qa[1],
        won,
        pairs,
        verdict,
    }
}

/// `x` with four significant digits.
fn sig(x: f64) -> String {
    let magnitude = if x == 0.0 {
        0
    } else {
        x.abs().log10().floor() as i32
    };
    format!("{x:.*}", (3 - magnitude).max(0) as usize)
}

/// The `compare` report over two sets of run documents, and whether it
/// found a worse metric or a digest mismatch.
pub fn compare(def: &Definition, a: &[RunSummary], b: &[RunSummary]) -> (String, bool) {
    let mut out = String::new();
    let mut bad = false;
    let mut workloads: Vec<&str> = a.iter().chain(b).map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let _ = writeln!(
        out,
        "{:<14} {:<18} {:>30} {:>30} {:>7} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "won"
    );
    for w in &workloads {
        let side = |runs: &[RunSummary]| -> Vec<RunSummary> {
            let mut v: Vec<RunSummary> =
                runs.iter().filter(|r| r.workload == *w).cloned().collect();
            v.sort_by_key(|r| r.seed);
            v
        };
        let (ra, rb) = (side(a), side(b));
        if ra.is_empty() || rb.is_empty() {
            let _ = writeln!(out, "{w:<14} only one side has runs; not compared");
            continue;
        }
        for m in &def.end_to_end {
            let values = |runs: &[RunSummary]| {
                runs.iter()
                    .filter_map(|r| r.metric(&m.name))
                    .collect::<Vec<_>>()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                let _ = writeln!(out, "{w:<14} {:<18} missing on one side", m.name);
                bad = true;
                continue;
            }
            let row = judge(m, &va, &vb);
            bad |= row.verdict == Verdict::Worse;
            let q = |q: [f64; 3]| format!("{} [{}, {}]", sig(q[1]), sig(q[0]), sig(q[2]));
            let _ = writeln!(
                out,
                "{w:<14} {:<18} {:>30} {:>30} {:>7.4} {:>6}  {}",
                m.name,
                q(row.a),
                q(row.b),
                row.ratio,
                format!("{}/{}", row.won, row.pairs),
                row.verdict.name()
            );
        }
    }
    // Same workload and seed must simulate the same bytes, within a
    // side and across the two.
    let mut seen: Vec<(&str, u64, &str, char)> = Vec::new();
    for (tag, runs) in [('A', a), ('B', b)] {
        for r in runs {
            if let Some((_, _, d, t)) = seen
                .iter()
                .find(|(w, s, d, _)| *w == r.workload && *s == r.seed && *d != r.digest)
            {
                let _ = writeln!(
                    out,
                    "sim_digest mismatch: {} seed {}: {d} ({t}) vs {} ({tag})",
                    r.workload, r.seed, r.digest
                );
                bad = true;
            }
            seen.push((&r.workload, r.seed, &r.digest, tag));
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "ms".into(),
            better,
            bound: Some(bound),
        }
    }

    #[test]
    fn the_committed_definition_parses() {
        let d = definition();
        assert!(d.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(d.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
        for w in crate::jobs::Workload::ALL {
            let digest = committed_digest(w.name()).expect("every workload has a digest");
            assert_eq!(digest.len(), 16);
        }
    }

    #[test]
    fn render_keeps_every_digit() {
        let doc = Json::object(vec![
            ("x", Json::Num(1.234_567_891_2)),
            ("n", Json::Int(7)),
            ("s", Json::Str("a\"b".into())),
            ("l", Json::Array(vec![Json::Bool(true), Json::Null])),
        ]);
        let text = render(&doc);
        assert_eq!(
            text,
            r#"{"x":1.2345678912,"n":7,"s":"a\"b","l":[true,null]}"#
        );
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn run_documents_round_trip() {
        let doc = Json::object(vec![
            ("workload", Json::Str("sweep-dense".into())),
            ("seed", Json::Int(3)),
            ("trace", Json::Bool(false)),
            ("sim_digest", Json::Str("00112233aabbccdd".into())),
            (
                "metrics",
                Json::object(vec![(
                    "job_ms",
                    Json::object(vec![
                        ("value", Json::Num(2093.5123)),
                        ("unit", Json::Str("ms".into())),
                    ]),
                )]),
            ),
        ]);
        let back = RunSummary::from_json(&Json::parse(&render(&doc)).unwrap()).unwrap();
        assert_eq!(
            back,
            RunSummary {
                workload: "sweep-dense".into(),
                seed: 3,
                metrics: vec![("job_ms".into(), 2093.5123)],
                digest: "00112233aabbccdd".into(),
            }
        );
    }

    #[test]
    fn verdicts_on_synthetic_runs() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
        ];
        let lower = def(Better::Lower, 0.05);
        let same = judge(&lower, &base, &base);
        assert_eq!(same.verdict, Verdict::WithinBound);
        assert_eq!(same.ratio, 1.0);
        let slower: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&lower, &base, &slower).verdict, Verdict::Worse);
        let faster: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        let row = judge(&lower, &base, &faster);
        assert_eq!((row.verdict, row.won, row.pairs), (Verdict::Better, 10, 10));
        // The same numbers read the other way round for a rate.
        let higher = def(Better::Higher, 0.05);
        assert_eq!(judge(&higher, &base, &slower).verdict, Verdict::Better);
        assert_eq!(judge(&higher, &base, &faster).verdict, Verdict::Worse);
        // A 3% drift is inside a 5% bound.
        let drift: Vec<f64> = base.iter().map(|x| x * 1.03).collect();
        assert_eq!(judge(&lower, &base, &drift).verdict, Verdict::WithinBound);
        // Spread wider than the bound: unresolved, not unchanged.
        let noisy = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(judge(&lower, &base, &noisy).verdict, Verdict::Unresolved);
    }

    #[test]
    fn compare_flags_worse_metrics_and_digest_mismatches() {
        let d = Definition {
            run_seconds: 1,
            end_to_end: vec![MetricDef {
                name: "job_ms".into(),
                ..def(Better::Lower, 0.05)
            }],
            per_layer: Vec::new(),
        };
        let run = |seed, v: f64, digest: &str| RunSummary {
            workload: "sweep-dense".into(),
            seed,
            metrics: vec![("job_ms".into(), v)],
            digest: digest.into(),
        };
        let a: Vec<_> = (1..=5)
            .map(|s| run(s, 100.0 + s as f64 * 0.1, "d1"))
            .collect();
        let same: Vec<_> = (1..=5)
            .map(|s| run(s, 100.0 + s as f64 * 0.1, "d1"))
            .collect();
        let (text, bad) = compare(&d, &a, &same);
        assert!(!bad, "{text}");
        assert!(text.contains("within bound"));
        let slow: Vec<_> = (1..=5)
            .map(|s| run(s, 130.0 + s as f64 * 0.1, "d1"))
            .collect();
        let (text, bad) = compare(&d, &a, &slow);
        assert!(bad && text.contains("worse"), "{text}");
        let mut changed = same.clone();
        changed[2].digest = "d2".into();
        let (text, bad) = compare(&d, &a, &changed);
        assert!(bad && text.contains("sim_digest mismatch"), "{text}");
    }
}
