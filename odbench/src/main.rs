//! `odbench` — end-to-end and per-layer benchmark of the od-forecast
//! workspace.
//!
//! ```text
//! odbench --workload <train_paper|train_city|serve_fleet> --seed <n>
//!         --seconds <s> --trace <0|1> [--size tiny] [--out <dir>]
//! ```
//!
//! Prints, as its last stdout line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. A JSON artifact
//! with provenance, time series and (traced) the spans and self times goes
//! to `--out` (default `odbench/out`). `--size tiny` shrinks every input
//! for the self-test. Exit code 0 means every check passed.

mod checks;
mod fleet;
mod probe;
mod report;
mod trace;
mod train;

use std::path::PathBuf;
use std::time::Instant;

/// Kernel pool size, fixed for every run (the host has 2 cores).
pub const STOD_THREADS: usize = 2;
/// Closed-loop client threads of the serving workload.
pub const CLIENTS: usize = 2;

/// What one invocation runs.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measuring time budget.
    pub seconds: f64,
    /// Traced run: record spans and report per-layer metrics.
    pub traced: bool,
    /// Self-test sizes.
    pub tiny: bool,
    /// Directory for the run artifact and scratch state (WALs, adapt).
    pub out_dir: PathBuf,
    /// Identifier stamped on the artifact and every span.
    pub run_id: String,
}

fn usage(msg: &str) -> ! {
    eprintln!("odbench: {msg}");
    eprintln!(
        "usage: odbench --workload <train_paper|train_city|serve_fleet> --seed <n> \
         --seconds <s> --trace <0|1> [--size tiny] [--out <dir>]"
    );
    std::process::exit(2)
}

fn parse_args() -> Ctx {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        Some(
            args.get(i + 1)
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value"))),
        )
    };
    let workload = get("--workload").unwrap_or_else(|| usage("--workload is required"));
    if !["train_paper", "train_city", "serve_fleet"].contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    let seed: u64 = get("--seed")
        .unwrap_or_else(|| usage("--seed is required"))
        .parse()
        .unwrap_or_else(|_| usage("--seed must be an unsigned integer"));
    let seconds: f64 = get("--seconds")
        .unwrap_or_else(|| usage("--seconds is required"))
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s > 0.0)
        .unwrap_or_else(|| usage("--seconds must be a positive number"));
    let traced = match get("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(v) => usage(&format!("--trace must be 0 or 1, got {v:?}")),
    };
    let tiny = match get("--size").as_deref() {
        None | Some("full") => false,
        Some("tiny") => true,
        Some(v) => usage(&format!("--size must be full or tiny, got {v:?}")),
    };
    let out_dir = PathBuf::from(get("--out").unwrap_or_else(|| "odbench/out".into()));
    let run_id = format!(
        "{workload}-s{seed}-{}-{}",
        if traced { "trace" } else { "e2e" },
        std::process::id()
    );
    Ctx {
        workload,
        seed,
        seconds,
        traced,
        tiny,
        out_dir,
        run_id,
    }
}

/// Host conditions of one run, recorded with its results.
struct Host {
    load: f64,
    rev: String,
    wall_s: f64,
    steal_share: f64,
}

fn artifact(ctx: &Ctx, o: &report::Outcome, host: &Host) -> String {
    use report::{num, string};
    let mut fields = vec![
        format!("\"run_id\": {}", string(&ctx.run_id)),
        format!("\"workload\": {}", string(&ctx.workload)),
        format!("\"seed\": {}", ctx.seed),
        format!("\"seconds\": {}", num(ctx.seconds)),
        format!("\"traced\": {}", ctx.traced),
        format!(
            "\"size\": {}",
            string(if ctx.tiny { "tiny" } else { "full" })
        ),
        format!("\"rev\": {}", string(&host.rev)),
        format!(
            "\"nproc\": {}",
            std::thread::available_parallelism().map_or(0, usize::from)
        ),
        format!("\"stod_threads\": {STOD_THREADS}"),
        format!("\"clients\": {CLIENTS}"),
        format!("\"loadavg_1m_at_start\": {}", num(host.load)),
        format!("\"wall_s\": {}", num(host.wall_s)),
        format!("\"cpu_steal_share\": {}", num(host.steal_share)),
        format!("\"correct\": {}", o.correct()),
        format!(
            "\"errors\": [{}]",
            o.errors
                .iter()
                .map(|e| string(e))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        format!("\"attempted\": {}", o.attempted),
        format!("\"failed\": {}", o.failed),
        format!("\"end_to_end\": {}", report::metrics_json(o, false)),
    ];
    if ctx.traced {
        fields.push(format!("\"per_layer\": {}", report::metrics_json(o, true)));
        let spans = trace::spans();
        let self_times = trace::self_times(&spans)
            .into_iter()
            .map(|(name, (calls, total, own))| {
                format!(
                    "{}: {{\"calls\": {calls}, \"total_ms\": {}, \"self_ms\": {}}}",
                    string(name),
                    num(total),
                    num(own)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        fields.push(format!("\"self_time\": {{{self_times}}}"));
        let run = string(&ctx.run_id);
        let spans = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}, \"run\": {run}}}",
                    s.id,
                    s.parent.map_or("null".into(), |p| p.to_string()),
                    string(s.name),
                    s.thread,
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect::<Vec<_>>()
            .join(",\n    ");
        fields.push(format!("\"spans\": [\n    {spans}\n  ]"));
    }
    fields.extend(o.detail.iter().cloned());
    format!("{{\n  {}\n}}\n", fields.join(",\n  "))
}

fn main() {
    // Fixed process configuration, set before any kernel or probe reads
    // it: a 2-thread kernel pool and the library's own observability off.
    std::env::set_var("STOD_THREADS", STOD_THREADS.to_string());
    std::env::set_var("STOD_OBS", "off");
    let ctx = parse_args();
    let load = report::loadavg_1m();
    let rev = report::git_rev();
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("odbench: cannot create {}: {e}", ctx.out_dir.display());
        std::process::exit(2);
    }
    let started = Instant::now();
    let steal0 = report::cpu_steal();
    let outcome = match ctx.workload.as_str() {
        "train_paper" => train::paper(&ctx),
        "train_city" => train::city(&ctx),
        _ => fleet::serve(&ctx),
    };
    let steal1 = report::cpu_steal();
    let host = Host {
        load,
        rev,
        wall_s: started.elapsed().as_secs_f64(),
        steal_share: (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64,
    };
    let path = ctx.out_dir.join(format!(
        "{}-seed{}{}.json",
        ctx.workload,
        ctx.seed,
        if ctx.traced { "-trace" } else { "" }
    ));
    if let Err(e) = std::fs::write(&path, artifact(&ctx, &outcome, &host)) {
        eprintln!("odbench: cannot write {}: {e}", path.display());
    }
    for e in &outcome.errors {
        eprintln!("odbench: CHECK FAILED: {e}");
    }
    println!("{}", report::result_line(&outcome, ctx.traced));
    std::process::exit(if outcome.correct() { 0 } else { 1 });
}
