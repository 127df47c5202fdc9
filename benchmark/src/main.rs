//! The repository benchmark driver.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <rows_wire|topk_wire|swap_repeat> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the stack as a user sees it and prints, as
//! the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the workload again with the
//! program's metrics registry and request tracing on and reports the
//! per-layer metrics instead. Any wrong answer makes the run exit 1.
//! See `benchmark/README.md` for the workloads and the metric map.

mod inputs;
mod layers;
mod load;
mod report;
mod serving;
mod stats;
mod training;

use embsr_obs::JsonValue;

use crate::report::Report;

/// Where traced runs write their trace records and per-layer tables,
/// relative to the directory the driver runs in.
pub const OUT_DIR: &str = ".bench_out";

/// The end-to-end metrics every untraced run reports, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_sps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("slo_ok_share", "share"),
    ("swap_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

const WORKLOADS: &[&str] = &["rows_wire", "topk_wire", "swap_repeat"];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace,
    })
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let _span = embsr_obs::span("bench", "run");
    match args.workload.as_str() {
        "rows_wire" => serving::run(&serving::ROWS_WIRE, args, report),
        "topk_wire" => serving::run(&serving::TOPK_WIRE, args, report),
        "swap_repeat" => serving::run(&serving::SWAP_REPEAT, args, report),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The metrics this run must report, by name and unit.
fn expected(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        layers::PER_LAYER.iter().map(|r| (r.name, r.unit)).collect()
    } else {
        END_TO_END.to_vec()
    }
}

fn main() {
    embsr_obs::init_from_env("EMBSR_LOG", "warn");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("embsr-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    if let Err(e) = run(&args, &mut report) {
        eprintln!("embsr-benchmark: {} failed: {e}", args.workload);
        std::process::exit(2);
    }
    for note in &report.notes {
        eprintln!("  {note}");
    }
    eprintln!("  phase accounting (attempted / succeeded / refused / failed / wrong):");
    for p in &report.phases {
        eprintln!(
            "    {:<18} {:>7} {:>7} {:>7} {:>7} {:>7}",
            p.phase, p.attempted, p.succeeded, p.refused, p.failed, p.wrong
        );
    }
    if args.trace {
        layers::write_table(&args.workload, args.seed, &report);
    }
    let mut metrics = Vec::new();
    for (name, unit) in expected(args.trace) {
        let Some((_, value, _)) = report.metrics.iter().find(|(n, _, _)| n == name) else {
            eprintln!("embsr-benchmark: metric {name} was not measured");
            std::process::exit(2);
        };
        if !value.is_finite() {
            eprintln!("embsr-benchmark: metric {name} is not finite ({value})");
            std::process::exit(2);
        }
        metrics.push((
            name,
            JsonValue::object(vec![
                ("value", JsonValue::Number(*value)),
                ("unit", JsonValue::String(unit.to_string())),
            ]),
        ));
    }
    for w in &report.wrong {
        eprintln!("  WRONG: {w}");
    }
    let correct = report.wrong.is_empty();
    let out = JsonValue::object(vec![
        ("correct", JsonValue::Bool(correct)),
        (
            "attempted",
            JsonValue::Number(report.attempted().max(1) as f64),
        ),
        ("failed", JsonValue::Number(report.failed() as f64)),
        ("metrics", JsonValue::object(metrics)),
    ]);
    println!("{}", out.to_json());
    if !correct {
        std::process::exit(1);
    }
}
