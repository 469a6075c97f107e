//! The `idbench` command line: parse the flags, run one workload, print
//! every metric and the final JSON line (see the library docs and
//! `idbench/README.md`).

use idbench::model::Kind;
use idbench::{runs, stats, sys, Args, Inject, END_TO_END, PER_LAYER};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut inject = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .map_err(|_| format!("bad seconds {val}"))?,
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {val}")),
                })
            }
            "--inject" => {
                inject = Some(match val.as_str() {
                    "corrupt" => Inject::Corrupt,
                    "fail-open" => Inject::FailOpen,
                    _ => return Err(format!("bad inject {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        inject,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("idbench: {e}");
            eprintln!("usage: idbench --workload <meta|churn|bulk|box_make> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let root = idbench::bench_dir().join("..");
    println!(
        "# idbench workload={} seed={} seconds={} trace={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# provenance host_cores={} git_sha={} seed={} run_seconds={}",
        sys::host_cores(),
        sys::git_sha(&root),
        args.seed,
        args.seconds
    );
    let outcome = match runs::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("idbench: run failed: {e}");
            std::process::exit(1);
        }
    };
    for n in &outcome.notes {
        println!("# {n}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut json = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let v = outcome
            .metrics
            .get(name)
            .copied()
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        println!("# metric {name} {v} {unit}");
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            finite(v)
        ));
    }
    let t = &outcome.tally;
    let correct = t.failed == 0 && !t.fail_open && t.attempted > 0;
    println!(
        "# checks attempted={} failed={} fail_frac={} probes={} fail_open={}",
        t.attempted,
        t.failed,
        stats::ratio(t.failed as f64, t.attempted as f64),
        t.probes,
        t.fail_open
    );
    for e in &t.errors {
        println!("# error {e}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        t.attempted.max(1),
        t.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

/// JSON has no NaN or infinity; a metric that cannot be formed reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}
