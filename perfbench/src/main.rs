//! `perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload doom3 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! The line before it is a report with the model fingerprint, the host's
//! core count and every raw sample. The exit code is 0 when every checked
//! operation was correct, 1 when one failed and 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use attila_json::Json;
use attila_perfbench::{run, Options, Size, Workload};

const USAGE: &str = "usage: perfbench --workload doom3|texture_stream|serve_ckpt \
[--seed N] [--seconds S] [--trace 0|1] [--size full|tiny] [--out-dir DIR] [--wrong-expectation]";

fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::Doom3,
        seed: 1,
        seconds: 20.0,
        trace: false,
        size: Size::Full,
        wrong_expectation: false,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut workload = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "--wrong-expectation" {
            opts.wrong_expectation = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(opts.seconds >= 0.0 && opts.seconds <= 3600.0) {
                    return Err(bad("expected 0 to 3600"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--size" => {
                opts.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("expected full or tiny")),
                }
            }
            "--out-dir" => opts.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&opts);
    println!(
        "{}",
        Json::obj1("report", Json::Obj(outcome.report.clone())).render()
    );
    println!("{}", outcome.result_json().render());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
