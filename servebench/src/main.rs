//! Serving benchmark of the sketch catalog: seeded workloads against
//! in-process servers over real TCP, every answer checked, end-to-end metrics
//! by name and unit, and per-layer metrics from a separate traced run.
//!
//! ```sh
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload lake_scan --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Catalogs live under `.bench_run/` there and
//! are removed at exit; a traced run leaves its spans in `.bench_run/spans/`.
//! Progress goes to standard error; the last line of standard output is the
//! result, one JSON object. See `servebench/README.md` for the workloads and
//! which layer metric should move which end-to-end metric.

mod client;
mod deploy;
mod host;
mod inputs;
mod report;
mod run;
mod stats;
mod trace;

use inputs::Kind;
use run::Args;
use std::path::PathBuf;

const USAGE: &str =
    "usage: servebench --workload <lake_scan|text_search|ingest_mix|routed> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        kind: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let base = PathBuf::from(".bench_run");
    let dir = base.join(format!(
        "{}-{}-{}",
        args.kind.name(),
        args.seed,
        std::process::id()
    ));
    let spans = base
        .join("spans")
        .join(format!("{}-seed{}.jsonl", args.kind.name(), args.seed));
    eprintln!(
        "{} seed {} for {} s{}, catalogs under {}",
        args.kind.name(),
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" },
        dir.display()
    );
    match run::run(&args, &dir, &spans) {
        Ok(report) => {
            for m in &report.metrics {
                eprintln!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
            }
            let line = report.encode();
            report::Report::parse(&line).expect("the result line parses back");
            println!("{line}");
        }
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse_args(&argv("--workload routed --seed 42 --seconds 10 --trace 1")).unwrap();
        assert_eq!(args.kind, Kind::Routed);
        assert_eq!((args.seed, args.seconds, args.trace), (42, 10, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload routed --seed x --seconds 1 --trace 0",
            "--workload routed --seed 1 --seconds 1 --trace 2",
            "--workload routed --seconds 1 --trace 0",
            "--workload routed --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
