//! Automated shape checks: the paper's qualitative findings, expressed
//! as predicates over a run matrix. `all_figures` prints the verdicts
//! and EXPERIMENTS.md records them; reproductions are judged on these
//! *shapes*, not on absolute numbers.

use graph_data::{DatasetSpec, SizeClass};

use crate::framework::report::{extract, MatrixView};

/// One qualitative claim and its verdict on a given matrix.
#[derive(Debug, Clone)]
pub struct ClaimResult {
    pub claim: &'static str,
    pub holds: bool,
    pub detail: String,
}

/// Registry entries that post-date the paper. The paper's claims
/// describe *its* algorithm set, so these never participate in a claim
/// — neither as "published" rivals nor as dataset winners.
fn in_paper(algo: &str) -> bool {
    !matches!(algo, "CoverEdge" | "GroupTC-H")
}

/// The paper's eight published implementations (its own GroupTC and
/// everything post-paper excluded) — the comparison set for claims
/// about "the fastest published implementation".
fn published(algo: &str) -> bool {
    in_paper(algo) && algo != "GroupTC"
}

/// Evaluate the paper's headline claims against a sweep over `datasets`
/// (any subset of Table II; claims about absent size classes are
/// skipped).
pub fn check_claims(view: &MatrixView, datasets: &[DatasetSpec]) -> Vec<ClaimResult> {
    let mut results = Vec::new();
    let time = |algo: &str, ds: &str| view.value(algo, ds, extract::time_ms);

    let in_class = |class: SizeClass| -> Vec<&DatasetSpec> {
        datasets.iter().filter(|d| d.size_class == class).collect()
    };
    // `ds`'s times for the algorithms `keep` admits, fastest first; the
    // sort is stable, so a tie keeps the matrix's algorithm order.
    let ranking = |keep: fn(&str) -> bool, ds: &str| -> Vec<(&str, f64)> {
        let mut ranked: Vec<(&str, f64)> = view
            .algorithms
            .iter()
            .filter(|a| keep(a))
            .filter_map(|a| time(a, ds).map(|t| (a.as_str(), t)))
            .collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        ranked
    };

    // Claim 1: "the Polak algorithm ... is the winner in processing all
    // small-to-medium datasets" — checked as: Polak is the fastest
    // *published* implementation (GroupTC is the paper's own) on every
    // small dataset.
    {
        let small = in_class(SizeClass::Small);
        if !small.is_empty() {
            let mut losses = Vec::new();
            for d in &small {
                let w = ranking(published, d.name).first().map_or("", |r| r.0);
                if w != "Polak" {
                    losses.push(format!("{} won by {w}", d.name));
                }
            }
            results.push(ClaimResult {
                claim: "Polak is the fastest published implementation on every small dataset",
                holds: losses.is_empty(),
                detail: if losses.is_empty() {
                    format!("holds on all {} small datasets", small.len())
                } else {
                    losses.join("; ")
                },
            });
        }
    }

    // Claim 2: TRUST beats Polak's small-dataset rivals at scale — "TRUST
    // shows the best performance in all large datasets": checked as
    // TRUST being within the top three on every medium+large dataset.
    {
        let big: Vec<&DatasetSpec> = datasets
            .iter()
            .filter(|d| d.size_class != SizeClass::Small)
            .collect();
        if !big.is_empty() {
            let mut misses = Vec::new();
            for d in &big {
                let rank = ranking(published, d.name)
                    .iter()
                    .position(|&(a, _)| a == "TRUST");
                match rank {
                    Some(r) if r < 3 => {}
                    Some(r) => misses.push(format!("{}: rank {}", d.name, r + 1)),
                    None => misses.push(format!("{}: failed", d.name)),
                }
            }
            results.push(ClaimResult {
                claim: "TRUST is a top-3 published implementation on every medium/large dataset",
                holds: misses.is_empty(),
                detail: if misses.is_empty() {
                    format!("holds on all {} medium/large datasets", big.len())
                } else {
                    misses.join("; ")
                },
            });
        }
    }

    // Claim 3: Bisson and Green sit at the bottom: each is in the slowest
    // three published implementations on a majority of datasets.
    for slow in ["Bisson", "Green"] {
        let mut bottom = 0usize;
        let mut counted = 0usize;
        for d in datasets {
            let mut ranked = ranking(published, d.name);
            if ranked.is_empty() {
                continue;
            }
            counted += 1;
            // Slowest first; stable, so ties stay in matrix order.
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
            if ranked.iter().take(3).any(|&(a, _)| a == slow) {
                bottom += 1;
            }
        }
        results.push(ClaimResult {
            claim: if slow == "Bisson" {
                "Bisson exhibits bottom-3 performance on most datasets"
            } else {
                "Green exhibits bottom-3 performance on most datasets"
            },
            holds: counted > 0 && bottom * 2 > counted,
            detail: format!("bottom-3 on {bottom}/{counted} datasets"),
        });
    }

    // Claim 4: GroupTC outperforms Polak on most datasets (paper:
    // 17 of 19, losing only the two smallest).
    {
        let mut wins = 0usize;
        let mut counted = 0usize;
        let mut losses = Vec::new();
        for d in datasets {
            if let (Some(p), Some(g)) = (time("Polak", d.name), time("GroupTC", d.name)) {
                counted += 1;
                if g <= p {
                    wins += 1;
                } else {
                    losses.push(format!("{} ({:.2}x)", d.name, p / g));
                }
            }
        }
        results.push(ClaimResult {
            claim: "GroupTC outperforms Polak on most datasets",
            holds: counted > 0 && wins * 2 > counted,
            detail: format!("wins {wins}/{counted}; losses: {}", losses.join(", ")),
        });
    }

    // Claim 5: GroupTC beats TRUST on small/medium and stays comparable
    // (>= 0.8x) on large.
    {
        let mut bad = Vec::new();
        let mut counted = 0usize;
        for d in datasets {
            if let (Some(t), Some(g)) = (time("TRUST", d.name), time("GroupTC", d.name)) {
                counted += 1;
                let speedup = t / g;
                let ok = match d.size_class {
                    SizeClass::Small | SizeClass::Medium => speedup >= 1.0,
                    SizeClass::Large => speedup >= 0.8,
                };
                if !ok {
                    bad.push(format!("{} ({speedup:.2}x)", d.name));
                }
            }
        }
        results.push(ClaimResult {
            claim: "GroupTC beats TRUST on small/medium and stays comparable on large",
            holds: counted > 0 && bad.is_empty(),
            detail: if bad.is_empty() {
                format!("holds on all {counted} datasets")
            } else {
                format!("violations: {}", bad.join(", "))
            },
        });
    }

    // Claim 6: the winner of every dataset is Polak, TRUST or GroupTC
    // (the paper's recommendation set).
    {
        let mut odd = Vec::new();
        for d in datasets {
            if let Some(&(w, _)) = ranking(in_paper, d.name).first() {
                if !matches!(w, "Polak" | "TRUST" | "GroupTC") {
                    odd.push(format!("{}: {w}", d.name));
                }
            }
        }
        results.push(ClaimResult {
            claim: "every dataset is won by Polak, TRUST or GroupTC",
            holds: odd.is_empty(),
            detail: if odd.is_empty() {
                "holds".to_string()
            } else {
                odd.join("; ")
            },
        });
    }

    results
}

/// Render verdicts as a text block.
pub fn render_claims(results: &[ClaimResult]) -> String {
    let mut out = String::from("PAPER-CLAIM SHAPE CHECKS\n");
    for r in results {
        out.push_str(&format!(
            "  [{}] {} — {}\n",
            if r.holds { "ok" } else { "DEVIATES" },
            r.claim,
            r.detail
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::runner::{RunOutcome, RunRecord};
    use gpu_sim::ProfileCounters;
    use graph_data::datasets::GenSpec;

    fn spec(name: &'static str, class: SizeClass) -> DatasetSpec {
        DatasetSpec {
            name,
            paper_vertices: 0,
            paper_edges: 0,
            paper_avg_degree: 0.0,
            size_class: class,
            gen: GenSpec::Er {
                n: 10,
                raw_edges: 10,
            },
            seed: 0,
        }
    }

    fn rec(algo: &str, ds: &'static str, cycles: u64) -> RunRecord {
        RunRecord {
            algorithm: algo.into(),
            dataset: ds,
            backend: "sim",
            outcome: RunOutcome::Ok {
                triangles: 0,
                kernel_cycles: cycles,
                counters: ProfileCounters::default(),
                verified: true,
            },
            wall: std::time::Duration::ZERO,
        }
    }

    #[test]
    fn claims_hold_on_a_paper_shaped_matrix() {
        // Synthesize a matrix that matches the paper's story.
        let datasets = [spec("s1", SizeClass::Small), spec("m1", SizeClass::Medium)];
        let records = vec![
            rec("Green", "s1", 100),
            rec("Polak", "s1", 10),
            rec("Bisson", "s1", 120),
            rec("TRUST", "s1", 30),
            rec("GroupTC", "s1", 12),
            rec("Green", "m1", 1000),
            rec("Polak", "m1", 300),
            rec("Bisson", "m1", 1200),
            rec("TRUST", "m1", 100),
            rec("GroupTC", "m1", 90),
        ];
        let view = MatrixView::new(&records);
        let claims = check_claims(&view, &datasets);
        // GroupTC loses s1? It wins m1 and loses s1 -> 1/2 wins is not a
        // majority, so claim 4 deviates; the others hold.
        let c1 = claims
            .iter()
            .find(|c| c.claim.contains("Polak is the fastest"))
            .unwrap();
        assert!(c1.holds, "{:?}", c1);
        let c2 = claims
            .iter()
            .find(|c| c.claim.contains("TRUST is a top-3"))
            .unwrap();
        assert!(c2.holds, "{:?}", c2);
        let c6 = claims
            .iter()
            .find(|c| c.claim.contains("every dataset is won"))
            .unwrap();
        assert!(c6.holds, "{:?}", c6);
    }

    #[test]
    fn post_paper_algorithms_do_not_disturb_the_paper_claims() {
        // CoverEdge post-dates the paper: even when it wins a dataset
        // outright, claim 1 (fastest published) and claim 6 (winner in
        // the recommendation set) are judged on the paper's set only.
        let datasets = [spec("s1", SizeClass::Small)];
        let records = vec![
            rec("CoverEdge", "s1", 1),
            rec("Polak", "s1", 10),
            rec("TRUST", "s1", 30),
            rec("GroupTC", "s1", 12),
        ];
        let view = MatrixView::new(&records);
        let claims = check_claims(&view, &datasets);
        let c1 = claims
            .iter()
            .find(|c| c.claim.contains("Polak is the fastest"))
            .unwrap();
        assert!(c1.holds, "{c1:?}");
        let c6 = claims
            .iter()
            .find(|c| c.claim.contains("every dataset is won"))
            .unwrap();
        assert!(c6.holds, "{c6:?}");
    }

    #[test]
    fn deviations_are_reported() {
        let datasets = [spec("s1", SizeClass::Small)];
        let records = vec![
            rec("Polak", "s1", 100),
            rec("TRUST", "s1", 10),
            rec("GroupTC", "s1", 500),
        ];
        let view = MatrixView::new(&records);
        let claims = check_claims(&view, &datasets);
        let c1 = claims
            .iter()
            .find(|c| c.claim.contains("Polak is the fastest"))
            .unwrap();
        assert!(!c1.holds);
        assert!(c1.detail.contains("TRUST"));
        let text = render_claims(&claims);
        assert!(text.contains("DEVIATES"));
    }

    #[test]
    fn failed_cells_are_skipped_not_crashed() {
        let datasets = [spec("s1", SizeClass::Small)];
        let records = vec![
            rec("Polak", "s1", 10),
            RunRecord {
                algorithm: "H-INDEX".into(),
                dataset: "s1",
                backend: "sim",
                outcome: RunOutcome::Failed(gpu_sim::SimError::KernelFault("x".into())),
                wall: std::time::Duration::ZERO,
            },
            rec("GroupTC", "s1", 9),
            rec("TRUST", "s1", 30),
        ];
        let view = MatrixView::new(&records);
        let claims = check_claims(&view, &datasets);
        assert!(!claims.is_empty());
    }
}
