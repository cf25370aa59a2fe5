//! `tc` — every table and figure of the paper, the benchmark sweep and
//! the pin writer, as subcommands of one binary:
//!
//! ```sh
//! cargo run --release -p tc-bench -- <command> [args...]
//! ```
//!
//! The subcommands live in two modules of this binary: `reports` (the
//! paper's tables, figures and studies) and `tools` (the benchmark sweep
//! and `tc pins`, which writes every committed pin). Bad input exits 2
//! with the command's usage; a failed verification exits 1.

mod reports;
mod tools;

use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::exit;

use tc_bench::cli::{Args, Error};
use tc_bench::eprint_progress;

/// One subcommand: its name, argument synopsis, one-line help and entry
/// point.
struct Command {
    name: &'static str,
    synopsis: &'static str,
    help: &'static str,
    run: fn(Args) -> Result<(), Error>,
}

impl Command {
    /// `name synopsis`, as the usage text shows it.
    fn invocation(&self) -> String {
        format!("{} {}", self.name, self.synopsis)
            .trim_end()
            .to_string()
    }
}

const COMMANDS: &[Command] = &[
    Command {
        name: "table1",
        synopsis: "",
        help: "Table I: taxonomy of the registered ITC algorithms",
        run: reports::table1,
    },
    Command {
        name: "table2",
        synopsis: "[DATASETS]",
        help: "Table II: the datasets, paper originals vs synthetic stand-ins",
        run: reports::table2,
    },
    Command {
        name: "all_figures",
        synopsis: "[DATASETS] [--serial] [--csv PATH] [--timed-csv PATH]",
        help: "Figures 11, 12, 13(a), 13(b) and 15 plus the claim checks, from one sweep",
        run: reports::all_figures,
    },
    Command {
        name: "ablation_grouptc",
        synopsis: "[DATASETS]",
        help: "GroupTC's Section V optimizations toggled off one at a time (default --medium)",
        run: reports::ablation_grouptc,
    },
    Command {
        name: "background_approaches",
        synopsis: "[DATASETS]",
        help: "Section II: intersection vs matmul vs subgraph matching (default --small)",
        run: reports::background_approaches,
    },
    Command {
        name: "future_work",
        synopsis: "[DATASETS]",
        help: "Section VI: GroupTC-H against GroupTC and TRUST",
        run: reports::future_work,
    },
    Command {
        name: "orientation_study",
        synopsis: "[DATASETS]",
        help: "Section II-B: Polak, TRUST and GroupTC under five orientations \
               (default Email-EuAll Soc-Slashdot0922)",
        run: reports::orientation_study,
    },
    Command {
        name: "diag",
        synopsis: "[DATASET] [--algos NAME,...]",
        help: "one-line counter digest per algorithm on one dataset (default Com-Lj)",
        run: reports::diag,
    },
    Command {
        name: "bench_sweep",
        synopsis: "[DATASETS] [--serial] [--reps N] [--backend sim|cpu]",
        help: "host wall time and kernel cycles per cell (default Wiki-Talk)",
        run: tools::bench_sweep,
    },
    Command {
        name: "pins",
        synopsis: "",
        help: "write every committed pin file, relative to the repo root where it runs",
        run: tools::pins,
    },
];

/// Create `path` and fill it with `write`. The explicit flush surfaces
/// the write errors that dropping a `BufWriter` discards.
fn write_file(
    path: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<(), Error> {
    File::create(path)
        .map(BufWriter::new)
        .and_then(|mut f| write(&mut f).and_then(|()| f.flush()))
        .map_err(|e| Error::Failed(format!("write {path}: {e}")))?;
    eprint_progress(&format!("wrote {path}"));
    Ok(())
}

fn usage() -> String {
    let mut out = String::from("usage: tc <command> [args...]\n\ncommands:\n");
    for c in COMMANDS {
        out.push_str(&format!("  {}\n      {}\n", c.invocation(), c.help));
    }
    out.push_str(
        "\nDATASETS: Table II names (case-insensitive), --small or --medium;\n\
         with none, each command uses its default (all 19 unless noted).\n",
    );
    out
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(name) = argv.next() else {
        eprint!("tc: missing command\n{}", usage());
        exit(2);
    };
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        eprint!("tc: unknown command `{name}`\n{}", usage());
        exit(2);
    };
    match (cmd.run)(Args::new(argv)) {
        Ok(()) => {}
        Err(Error::Usage(msg)) => {
            eprintln!("tc {name}: {msg}");
            eprintln!("usage: tc {}", cmd.invocation());
            exit(2);
        }
        Err(Error::Failed(msg)) => {
            eprintln!("tc {name}: {msg}");
            exit(1);
        }
    }
}
