//! The `family-race` check: the wavelet and histogram families solve
//! the **same** `(data, budget, metric)` instances side by side, and
//! each is held to its own guarantee before the winner is declared.
//!
//! Per `(budget, metric)` pair, four claims are certified:
//!
//! * **Wavelet guarantee** — the `minmax` DP's objective dominates the
//!   realized maximum error of its synopsis (bit-certified elsewhere;
//!   re-asserted here so the race never compares an unsound number).
//! * **Histogram guarantee** — the `hist` DP's objective dominates the
//!   realized maximum error of its step function. Under the relative
//!   metric the DP optimizes the pairwise-max bucket cost, which equals
//!   the per-item maximum only up to ulps, so the comparison carries a
//!   `1e-9` relative slack (the same slack the AQP bounds suite uses).
//! * **Histogram optimality** — on instances small enough to enumerate
//!   every at-most-`b`-bucket partition, the DP objective is
//!   **bit-identical** to [`wsyn_hist::oracle::enumerate`]'s optimum.
//! * **Server `auto` pick** — an in-process `wsyn-serve` server asked to
//!   build with `family: "auto"` must keep exactly the family this
//!   module's library race predicts: `hist` iff its objective is
//!   strictly smaller, `minmax` otherwise (ties break to the wavelet).
//!
//! [`report`] renders the race as a deterministic transcript — one line
//! per `(instance, metric, budget)` with both objective bit patterns
//! and the winner, a per-shape tally, and the raw `auto` build response
//! bytes. CI captures it under `WSYN_POOL_THREADS=1` and `=4` and
//! requires a byte-identical diff.

use wsyn_synopsis::family::{HIST, MINMAX};
use wsyn_synopsis::histogram::HistThresholder;
use wsyn_synopsis::one_dim::MinMaxErr;
use wsyn_synopsis::thresholder::RunParams;
use wsyn_synopsis::{AnySynopsis, ErrorMetric, Thresholder};

use crate::checks::CheckSummary;
use crate::gen::Instance;
use crate::server_identity::with_server;
use crate::Failure;

/// One resolved race leg.
struct Leg {
    objective: f64,
    kept: usize,
}

/// Both legs of one `(budget, metric)` race.
struct Race {
    wavelet: Leg,
    hist: Leg,
    /// Registry id of the family the server's `auto` mode must keep.
    winner: &'static str,
    /// Whether the hist leg was certified against the enumeration
    /// oracle (small instances only — the oracle declines politely).
    oracle_certified: bool,
}

/// Solves both families on `(data, b, metric)`, asserts each guarantee,
/// and certifies the hist objective against the bucket-enumeration
/// oracle whenever the partition count permits.
fn race_one(
    inst: &Instance,
    data: &[f64],
    wavelet: &MinMaxErr,
    hist: &HistThresholder,
    metric: ErrorMetric,
    b: usize,
    sum: &mut CheckSummary,
) -> Result<Race, Failure> {
    let name = &inst.name;

    macro_rules! ensure {
        ($cond:expr, $check:expr, $($fmt:tt)+) => {
            sum.checks += 1;
            if $cond {
            } else {
                return Err(Failure::new($check, name, format!($($fmt)+)));
            }
        };
    }

    let w = wavelet.run(b, metric);
    sum.stats = sum.stats.merged(w.stats);
    let w_measured = metric.max_error(data, &w.synopsis.reconstruct());
    ensure!(
        w_measured <= w.objective + 1e-9 * (1.0 + w.objective.abs()),
        "race-wavelet-guarantee",
        "b={b} {}: wavelet realized {w_measured} above objective {}",
        metric,
        w.objective
    );

    let h = hist
        .threshold_with(&RunParams::new(b, metric))
        .map_err(|e| Failure::new("race-hist-run", name, e.to_string()))?;
    sum.stats = sum.stats.merged(h.stats);
    let AnySynopsis::Histogram(step) = &h.synopsis else {
        return Err(Failure::new(
            "race-hist-run",
            name,
            "hist produced a non-histogram synopsis".to_string(),
        ));
    };
    ensure!(
        step.len() <= b,
        "race-budget-respected",
        "b={b} {}: hist kept {} buckets",
        metric,
        step.len()
    );
    let h_measured = metric.max_error(data, &step.reconstruct());
    ensure!(
        h_measured <= h.objective + 1e-9 * (1.0 + h.objective.abs()),
        "race-hist-guarantee",
        "b={b} {}: hist realized {h_measured} above objective {}",
        metric,
        h.objective
    );

    // Oracle certification: the same denominators the adapter derives.
    let denoms: Option<Vec<f64>> = match metric {
        ErrorMetric::Absolute => None,
        ErrorMetric::Relative { .. } => Some(data.iter().map(|&d| metric.denom(d)).collect()),
    };
    let oracle = wsyn_hist::oracle::enumerate(
        data,
        denoms.as_deref(),
        b,
        wsyn_hist::oracle::DEFAULT_MAX_PARTITIONS,
    )
    .map_err(|e| Failure::new("race-hist-oracle", name, e.to_string()))?;
    let oracle_certified = oracle.is_some();
    if let Some(orc) = oracle {
        ensure!(
            h.objective.to_bits() == orc.objective.to_bits(),
            "race-hist-oracle-bits",
            "b={b} {}: hist DP {} vs enumeration oracle {} ({} partitions)",
            metric,
            h.objective,
            orc.objective,
            orc.partitions
        );
    }

    // The server's `auto` rule: hist wins only by strict improvement.
    let winner = if h.objective < w.objective {
        HIST
    } else {
        MINMAX
    };
    Ok(Race {
        wavelet: Leg {
            objective: w.objective,
            kept: w.synopsis.len(),
        },
        hist: Leg {
            objective: h.objective,
            kept: step.len(),
        },
        winner,
        oracle_certified,
    })
}

/// Runs the family race on one 1-D instance, including the server-side
/// `auto` pick: every `(budget, metric)` pair is built over the wire
/// with `family: "auto"` and must keep exactly the predicted winner at
/// the predicted objective bit pattern.
///
/// # Errors
/// The first failing check, with enough detail to reproduce it.
pub fn check(inst: &Instance, sum: &mut CheckSummary) -> Result<(), Failure> {
    if inst.shape.len() != 1 {
        return Ok(());
    }
    let name = &inst.name;
    let data: Vec<f64> = inst.data.iter().map(|&v| v as f64).collect();
    let wavelet =
        MinMaxErr::new(&data).map_err(|e| Failure::new("race-build", name, e.to_string()))?;
    let hist = HistThresholder::new(&data);

    let mut races: Vec<(ErrorMetric, usize, Race)> = Vec::new();
    for &metric in &inst.metrics {
        for &b in &inst.budgets {
            let race = race_one(inst, &data, &wavelet, &hist, metric, b, sum)?;
            races.push((metric, b, race));
        }
    }

    let column = format!("race/{name}");
    with_server(name, |client| {
        client
            .put(&column, &data)
            .map_err(|e| Failure::new("race-server-put", name, e))?;
        for (metric, b, race) in &races {
            let build = client
                .build_with_family(
                    &column,
                    *b,
                    &metric.to_string(),
                    wsyn_synopsis::family::AUTO,
                    false,
                )
                .map_err(|e| Failure::new("race-server-build", name, e))?;
            let picked = build
                .get("family")
                .and_then(wsyn_core::json::Value::as_str)
                .map(str::to_string);
            sum.checks += 1;
            if picked.as_deref() != Some(race.winner) {
                return Err(Failure::new(
                    "race-auto-pick",
                    name,
                    format!(
                        "b={b} {}: server auto kept {picked:?}, race predicts {} \
                         (wavelet {} vs hist {})",
                        metric, race.winner, race.wavelet.objective, race.hist.objective
                    ),
                ));
            }
            let expected = if race.winner == HIST {
                race.hist.objective
            } else {
                race.wavelet.objective
            };
            let got = build
                .get("objective")
                .and_then(wsyn_core::json::Value::as_f64);
            sum.checks += 1;
            if got.map(f64::to_bits) != Some(expected.to_bits()) {
                return Err(Failure::new(
                    "race-auto-bits",
                    name,
                    format!("b={b} {metric}: server auto objective {got:?} vs library {expected}"),
                ));
            }
        }
        Ok(())
    })
}

/// The shape a race line aggregates under: the instance name with any
/// trailing `-<seed>` generator suffix stripped, so `zipf-2004` and the
/// corpus `zipf` tally together.
#[must_use]
pub fn shape_of(name: &str) -> &str {
    match name.rsplit_once('-') {
        Some((stem, tail)) if !tail.is_empty() && tail.bytes().all(|c| c.is_ascii_digit()) => stem,
        _ => name,
    }
}

/// A deterministic transcript of the race over `instances`: one line
/// per `(instance, metric, budget)` with both objective bit patterns,
/// kept sizes, oracle status and winner; then the raw server `auto`
/// build response bytes; then a per-shape tally. CI diffs this across
/// `WSYN_POOL_THREADS` settings.
///
/// # Errors
/// Any failing check while producing the transcript.
pub fn report(instances: &[&Instance]) -> Result<String, Failure> {
    let mut out = String::new();
    // Shapes in first-seen order: the tally is as deterministic as the
    // instance list.
    let mut shapes: Vec<(String, usize, usize)> = Vec::new();
    for inst in instances {
        if inst.shape.len() != 1 {
            continue;
        }
        let mut sum = CheckSummary::default();
        check(inst, &mut sum)?;
        let data: Vec<f64> = inst.data.iter().map(|&v| v as f64).collect();
        let wavelet = MinMaxErr::new(&data)
            .map_err(|e| Failure::new("race-build", &inst.name, e.to_string()))?;
        let hist = HistThresholder::new(&data);
        let shape = shape_of(&inst.name).to_string();
        let slot = match shapes.iter().position(|(s, _, _)| *s == shape) {
            Some(i) => i,
            None => {
                shapes.push((shape, 0, 0));
                shapes.len() - 1
            }
        };
        for &metric in &inst.metrics {
            for &b in &inst.budgets {
                let race = race_one(inst, &data, &wavelet, &hist, metric, b, &mut sum)?;
                out.push_str(&format!(
                    "{} {} b={b} wavelet_bits={:016x} kept={} hist_bits={:016x} buckets={} oracle={} winner={}\n",
                    inst.name,
                    metric,
                    race.wavelet.objective.to_bits(),
                    race.wavelet.kept,
                    race.hist.objective.to_bits(),
                    race.hist.kept,
                    if race.oracle_certified { "certified" } else { "declined" },
                    race.winner
                ));
                if race.winner == HIST {
                    shapes[slot].2 += 1;
                } else {
                    shapes[slot].1 += 1;
                }
            }
        }
        // The raw `auto` response bytes, so thread settings cannot leak
        // into a single byte of the server's pick.
        let column = format!("race/{}", inst.name);
        let lines = with_server(&inst.name, |client| {
            let mut lines = Vec::new();
            client
                .put(&column, &data)
                .map_err(|e| Failure::new("race-server-put", &inst.name, e))?;
            for &metric in &inst.metrics {
                for &b in &inst.budgets {
                    let payload = client
                        .request_raw(&wsyn_serve::Request::Build {
                            column: column.clone(),
                            budget: b,
                            metric: metric.to_string(),
                            family: Some(wsyn_synopsis::family::AUTO.to_string()),
                            trace: false,
                        })
                        .map_err(|e| Failure::new("race-server-build", &inst.name, e))?;
                    lines.push(format!(
                        "{}\tauto {} b={b}\t{}",
                        inst.name,
                        metric,
                        String::from_utf8_lossy(&payload)
                    ));
                }
            }
            Ok(lines)
        })?;
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
    }
    for (shape, wavelet_wins, hist_wins) in shapes {
        let overall = if hist_wins > wavelet_wins {
            HIST
        } else {
            MINMAX
        };
        out.push_str(&format!(
            "shape {shape}: wavelet {wavelet_wins} hist {hist_wins} winner={overall}\n"
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Kind};

    #[test]
    fn family_race_passes_and_certifies_against_the_oracle() {
        let inst = generate(Kind::Plateaus, 7);
        let mut sum = CheckSummary::default();
        check(&inst, &mut sum).expect("family-race");
        assert!(sum.checks > 0, "family must evaluate assertions");
    }

    #[test]
    fn report_is_reproducible_and_tallies_shapes() {
        let insts = [generate(Kind::Zipf, 3), generate(Kind::Spikes, 3)];
        let refs: Vec<&Instance> = insts.iter().collect();
        let a = report(&refs).expect("report");
        let b = report(&refs).expect("report");
        assert_eq!(a, b, "two runs must produce identical transcripts");
        assert!(a.contains("shape zipf:"), "missing zipf tally:\n{a}");
        assert!(a.contains("shape spikes:"), "missing spikes tally:\n{a}");
        assert!(a.contains("winner="), "missing winners:\n{a}");
    }

    #[test]
    fn shape_stripping_only_touches_seed_suffixes() {
        assert_eq!(shape_of("zipf-2004"), "zipf");
        assert_eq!(shape_of("near-tie"), "near-tie");
        assert_eq!(shape_of("paper-example"), "paper-example");
        assert_eq!(shape_of("sign-alternating-12"), "sign-alternating");
    }

    #[test]
    fn conform_races_exactly_the_registry_id_set() {
        // The conform harness, the CLI and the server must agree on one
        // id universe: the registry assembled by `wsyn-serve`.
        let ids = wsyn_serve::registry().ids();
        assert_eq!(
            ids,
            vec![
                wsyn_synopsis::family::MINMAX,
                wsyn_synopsis::family::GREEDY,
                wsyn_synopsis::family::HIST,
                wsyn_synopsis::family::MINRELVAR,
                wsyn_synopsis::family::MINRELBIAS,
                wsyn_synopsis::family::STREAM,
            ]
        );
        // Both raced families are registry entries; `auto` is a server
        // sentinel, never an id.
        assert!(ids.contains(&HIST) && ids.contains(&MINMAX));
        assert!(!ids.contains(&wsyn_synopsis::family::AUTO));
    }
}
