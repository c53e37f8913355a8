//! The repository benchmark. One command runs one workload for one seed:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|tenant-hot|learn-loop> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It prints every metric by name and unit, runs the output checks, and
//! ends with one JSON line: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`) listed in `BENCHMARK.json`. The full report and, when
//! traced, the spans go to `perfbench/out/`. See `perfbench/README.md`.

mod layers;
mod learn_loop;
mod plan;
mod procfs;
mod replay;
mod report;
mod serving;
mod stats;
mod tenant_hot;
mod trace;
mod train;

use plan::Workload;
use report::{metric_json, Json, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// End-to-end metrics every workload reports in its result line.
const END_TO_END: [&str; 3] = ["setup_s", "op_ms", "peak_rss_mb"];

/// Per-layer metrics every workload's traced run reports in its result line.
const PER_LAYER: [&str; 21] = [
    "core.epgnn_ms",
    "core.features_ms",
    "core.encoder_ms",
    "core.decoder_ms",
    "core.mask_ms",
    "core.rollout_ms",
    "core.rollout_steps",
    "core.rollout_unattributed_share",
    "nn.backward_ms",
    "nn.tape_len",
    "nn.adam_ms",
    "core.greedy_eval_ms",
    "core.infer_ms",
    "flow.run_ms",
    "sta.analyze_ms",
    "netlist.generate_ms",
    "core.env_build_ms",
    "proc.cpu_user_s",
    "proc.cpu_sys_s",
    "proc.minor_faults",
    "bench.trace_overhead_share",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <train|tenant-hot|learn-loop> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds {s} outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let work = out.join(&name);
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("{}: {e}", work.display());
        return ExitCode::FAILURE;
    }

    let steal = procfs::steal_s();
    let tr = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let mut report = Report::default();
    match args.workload {
        Workload::Train => train::run(&plan::train(args.seed, args.seconds), &tr, &mut report),
        Workload::TenantHot => tenant_hot::run(
            &plan::tenant_hot(args.seed),
            args.seed,
            &tr,
            &work,
            &mut report,
        ),
        Workload::LearnLoop => learn_loop::run(
            &plan::learn_loop(args.seed, args.seconds),
            args.seed,
            &tr,
            &work,
            &mut report,
        ),
    }

    report.note("host_steal_s", Json::Num(procfs::steal_s() - steal));
    let listed: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &m in listed {
        match report.metric(m) {
            Some(metric) if metric.value.is_finite() => {
                metrics.push((m.to_string(), metric_json(metric)))
            }
            _ => report.check("metric_measured", false, m),
        }
    }

    print_table(&report);
    let header = vec![
        ("workload".into(), Json::Str(args.workload.name().into())),
        ("seed".into(), Json::Str(args.seed.to_string())),
        ("seconds".into(), Json::Num(args.seconds as f64)),
        ("trace".into(), Json::Bool(args.trace)),
        ("nproc".into(), Json::Num(procfs::nproc() as f64)),
        ("profile".into(), Json::Str(profile().into())),
        ("commit".into(), Json::Str(commit())),
    ];
    let full = report.to_json(header).render();
    let report_path = out.join(format!("{name}.json"));
    if let Err(e) = std::fs::write(&report_path, format!("{full}\n")) {
        eprintln!("{}: {e}", report_path.display());
    }
    if args.trace {
        let spans = out.join(format!("{name}.spans.jsonl"));
        if let Err(e) = tr.write_jsonl(&spans) {
            eprintln!("{}: {e}", spans.display());
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    println!("report: {full}");
    let last = Json::Obj(vec![
        ("correct".into(), Json::Bool(report.correct())),
        (
            "attempted".into(),
            Json::Num(report.attempted.max(1) as f64),
        ),
        ("failed".into(), Json::Num(report.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", last.render());
    ExitCode::SUCCESS
}

fn print_table(report: &Report) {
    for (title, list) in [
        ("end-to-end", &report.end_to_end),
        ("per-layer", &report.layers),
    ] {
        if list.is_empty() {
            continue;
        }
        println!("{title}:");
        for m in list {
            println!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }
    for c in &report.checks {
        println!(
            "check {:<36} {}  {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
}

fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The checked-out commit, read from the repository's `.git` when there
/// is one; a source export has none.
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(git.join(reference)) {
        return id.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
