//! `--json` must put *only* the canonical JSON document on stdout —
//! progress ticks and human tables belong to stderr. CI pipes these
//! commands straight into parsers.

use std::path::PathBuf;
use std::process::Command;

use icicle::obs::Json;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_icicle-tma"))
}

fn parse_stdout(out: &std::process::Output) -> Json {
    let stdout = String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8");
    Json::parse(stdout.trim())
        .unwrap_or_else(|e| panic!("stdout is not a single JSON document: {e}\n---\n{stdout}\n---"))
}

#[test]
fn bench_json_stdout_is_pure() {
    let out = bin()
        .args(["bench", "--json", "--warmup", "0", "--repeats", "1"])
        .output()
        .expect("icicle-tma bench runs");
    assert!(out.status.success(), "{:?}", out);
    let doc = parse_stdout(&out);
    assert!(doc.get("schema").is_some(), "ledger document has a schema");
    assert!(doc.get("cells").and_then(Json::as_array).is_some());
    // The human table moved to stderr.
    let stderr = String::from_utf8(out.stderr.clone()).unwrap();
    assert!(
        stderr.contains("cycles/sec") || stderr.contains("workload"),
        "human table on stderr, got: {stderr}"
    );
}

#[test]
fn campaign_json_stdout_is_pure() {
    let dir = std::env::temp_dir().join(format!("icicle-json-purity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec: PathBuf = dir.join("tiny.campaign");
    std::fs::write(
        &spec,
        "name = purity\nworkloads = vvadd\ncores = rocket\narchs = add-wires\n",
    )
    .unwrap();
    let out = bin()
        .args(["campaign", spec.to_str().unwrap(), "--no-cache", "--json"])
        .output()
        .expect("icicle-tma campaign runs");
    assert!(out.status.success(), "{:?}", out);
    let doc = parse_stdout(&out);
    assert!(doc.get("cells").is_some() || doc.get("results").is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_export_stdout_is_pure_trace_events() {
    let out = bin()
        .args([
            "trace",
            "export",
            "--cell",
            "vvadd/rocket/add-wires",
            "--window",
            "64",
        ])
        .output()
        .expect("icicle-tma trace export runs");
    assert!(out.status.success(), "{:?}", out);
    let doc = parse_stdout(&out);
    assert!(doc.get("traceEvents").and_then(Json::as_array).is_some());
}

#[test]
fn metrics_out_writes_a_snapshot() {
    let dir = std::env::temp_dir().join(format!("icicle-metrics-out-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec: PathBuf = dir.join("tiny.campaign");
    std::fs::write(
        &spec,
        "name = metrics\nworkloads = vvadd\ncores = rocket\narchs = add-wires\n",
    )
    .unwrap();
    let metrics = dir.join("metrics.json");
    let out = bin()
        .args([
            "campaign",
            spec.to_str().unwrap(),
            "--no-cache",
            "--json",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("icicle-tma campaign runs");
    assert!(out.status.success(), "{:?}", out);
    let text = std::fs::read_to_string(&metrics).unwrap();
    let doc = Json::parse(&text).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(icicle::obs::METRICS_SCHEMA)
    );
    let counters = doc.get("counters").expect("counters section");
    assert!(counters.get("campaign.cells.total").is_some());
    // --metrics-out switches the simulator tallies on; one vvadd run on
    // Rocket must have stepped cycles.
    assert!(
        counters
            .get("sim.rocket_cycles")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn log_level_jsonl_goes_to_the_sink_not_stdout() {
    let dir = std::env::temp_dir().join(format!("icicle-log-sink-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec: PathBuf = dir.join("tiny.campaign");
    std::fs::write(
        &spec,
        "name = logsink\nworkloads = vvadd\ncores = rocket\narchs = add-wires\n",
    )
    .unwrap();
    let sink = dir.join("trace.jsonl");
    let out = bin()
        .args([
            "--log-level",
            &format!("debug:{}", sink.display()),
            "campaign",
            spec.to_str().unwrap(),
            "--no-cache",
            "--json",
        ])
        .output()
        .expect("icicle-tma campaign runs");
    assert!(out.status.success(), "{:?}", out);
    // stdout stays a pure report even with logging at debug.
    parse_stdout(&out);
    let log = std::fs::read_to_string(&sink).unwrap();
    assert!(!log.is_empty(), "the JSONL sink received records");
    for line in log.lines() {
        let record = Json::parse(line).expect("each JSONL line parses");
        assert!(record.get("name").is_some());
        assert!(record.get("kind").is_some());
    }
    assert!(log.contains("campaign.run"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn list_json_keeps_the_catalog_order() {
    let out = bin()
        .args(["list", "--json"])
        .output()
        .expect("icicle-tma list runs");
    assert!(out.status.success(), "{:?}", out);
    let doc = parse_stdout(&out);
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads array")
        .iter()
        .map(|w| w.as_str().expect("workload names are strings"))
        .collect();
    let expected = [
        "mergesort",
        "qsort",
        "rsort",
        "memcpy",
        "mm",
        "vvadd",
        "brmiss",
        "brmiss_inv",
        "spmv",
        "towers",
        "median",
        "multiply",
        "atomic_histogram",
        "dhrystone",
        "coremark",
        "500.perlbench_r",
        "502.gcc_r",
        "505.mcf_r",
        "520.omnetpp_r",
        "523.xalancbmk_r",
        "525.x264_r",
        "531.deepsjeng_r",
        "541.leela_r",
        "548.exchange2_r",
        "557.xz_r",
        "coremark-sched",
        "ptrchase",
        "muldiv",
    ];
    assert_eq!(names, expected);
}
