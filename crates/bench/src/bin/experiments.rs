//! Experiment runner CLI.
//!
//! ```text
//! experiments list                 # show available experiment ids
//! experiments all [--paper-scale]  # run everything
//! experiments fig5a fig9b ...      # run specific figures
//!   --paper-scale   use the paper's full sizes (slow)
//!   --seed <n>      master seed (default 42)
//!   --out <dir>     CSV output directory (default results/)
//! ```

use std::path::PathBuf;
use std::time::Instant;

use flowmax_bench::{registry, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale::reduced();
    let mut seed = 42u64;
    let mut out = PathBuf::from("results");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--paper-scale" => scale = Scale::paper_scale(),
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs an integer");
                    std::process::exit(2);
                });
            }
            "--out" => {
                i += 1;
                out = PathBuf::from(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                }));
            }
            other => ids.push(other.to_string()),
        }
        i += 1;
    }

    let all = registry();
    if ids.is_empty() || ids.iter().any(|s| s == "list") {
        println!("available experiments (run with `experiments all` or by id):");
        for e in &all {
            println!("  {:<10} {}", e.id, e.description);
        }
        return;
    }

    let selected: Vec<_> = if ids.iter().any(|s| s == "all") {
        all.iter().collect()
    } else {
        let chosen: Vec<_> = all
            .iter()
            .filter(|e| ids.contains(&e.id.to_string()))
            .collect();
        let known: Vec<&str> = all.iter().map(|e| e.id).collect();
        for id in &ids {
            if !known.contains(&id.as_str()) {
                eprintln!("unknown experiment {id:?}; try `experiments list`");
                std::process::exit(2);
            }
        }
        chosen
    };

    for e in selected {
        let started = Instant::now();
        let report = (e.run)(&scale, seed);
        report.print();
        if let Err(err) = report.write_csv(&out) {
            eprintln!("warning: could not write CSV for {}: {err}", e.id);
        }
        println!(
            "# completed in {:.1?}; csv: {}/{}.csv\n",
            started.elapsed(),
            out.display(),
            e.id
        );
    }
}
