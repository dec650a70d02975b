//! Determinism and constraint-respect tests for the move-based
//! optimizer, plus the infeasible-start acceptance scenario: `optimize`
//! on experiment 1 must find a feasible partitioning from an infeasible
//! start within the default budget, with byte-identical digests at any
//! job count.

use chop_core::prelude::*;

/// Experiment-1 session (3 partitions, 84-pin packages) skewed by greedy
/// node moves into partition 0 until exploration finds nothing feasible.
fn infeasible_start() -> Session {
    let session = experiments::experiment1_session(&experiments::Exp1Config {
        partitions: 3,
        package: 1,
    })
    .expect("experiment 1 builds");
    let mut partitioning = session.partitioning().clone();
    // Pack partition-1/2 nodes into partition 0: the cut and partition-0
    // area blow past the 84-pin package until nothing predicts feasible.
    for source in [1usize, 2] {
        let nodes = partitioning.grouping().members(source);
        for node in nodes {
            if partitioning.grouping().members(source).len() <= 1 {
                break;
            }
            if let Ok(moved) = partitioning.with_node_moved(node, PartitionId::new(0)) {
                partitioning = moved;
            }
        }
    }
    session.try_with_partitioning(partitioning).expect("skewed partitioning validates")
}

#[test]
fn skewed_start_is_infeasible_and_optimize_recovers_feasibility() {
    let session = infeasible_start();
    let before = session.explore(Heuristic::Iterative).expect("explore runs");
    assert!(before.feasible.is_empty(), "skewed start must be infeasible");
    let result = session.optimize(&OptimizeSpec::new()).expect("optimize runs");
    assert!(result.feasible(), "default budget must recover feasibility, got {result}");
    assert!(!result.moves.is_empty());
    assert_eq!(result.completion, Completion::Complete);
}

/// Worker threads for the suite: `CHOP_TEST_JOBS` (CI sets 4 so the
/// digest-invariance assertions cover a real thread pool).
fn test_jobs() -> usize {
    std::env::var("CHOP_TEST_JOBS").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}

/// The acceptance check from the redesign: the optimizer digest is
/// byte-identical at `--jobs 1/2/8` (and whatever CI pins via
/// `CHOP_TEST_JOBS`) because every candidate evaluation goes through the
/// jobs-invariant exploration engine.
#[test]
fn digest_and_trace_are_byte_identical_across_jobs() {
    let session = infeasible_start();
    let spec = OptimizeSpec::new().with_seed(7);
    let baseline = session.clone().with_jobs(1).optimize(&spec).expect("jobs=1");
    for jobs in [2usize, 8, test_jobs()] {
        let run = session.clone().with_jobs(jobs).optimize(&spec).expect("optimize runs");
        assert_eq!(run.digest(), baseline.digest(), "digest diverged at jobs={jobs}");
        assert_eq!(run.moves, baseline.moves, "move trace diverged at jobs={jobs}");
        assert_eq!(
            run.partitioning.grouping(),
            baseline.partitioning.grouping(),
            "final grouping diverged at jobs={jobs}"
        );
    }
}

/// Work counters on experiment 1 (3 partitions, 84-pin packages, 256-move
/// budget), where the horizontal split already sits at the objective's
/// local optimum: gain passes alone converge in one pass, and the default
/// spec's two annealing kicks triple the evaluations without a move.
#[test]
fn experiment1_optimizer_work_is_pinned() {
    let session = experiments::experiment1_session(&experiments::Exp1Config {
        partitions: 3,
        package: 1,
    })
    .expect("experiment 1 builds");
    // (spec, evaluations, passes, kicks)
    let cases = [
        (OptimizeSpec::new().with_kicks(0, 0).with_max_moves(256), 26, 1, 0),
        (OptimizeSpec::new().with_max_moves(256), 82, 3, 2),
    ];
    for (spec, evaluations, passes, kicks) in cases {
        let r = session.optimize(&spec).expect("optimize runs");
        assert_eq!(
            (r.evaluations, r.passes, r.kicks_used, r.moves.len()),
            (evaluations, passes, kicks, 0),
            "(evaluations, passes, kicks, moves) for {spec:?}"
        );
        assert_eq!(r.final_score, 31310.0);
        assert_eq!(r.completion, Completion::Complete);
    }
}

/// Replaying the accepted move trace through [`Session::apply_moves`]
/// lands on the optimizer's final grouping — the property the service
/// journal relies on.
#[test]
fn accepted_trace_replays_to_final_partitioning() {
    let session = infeasible_start();
    let result = session.optimize(&OptimizeSpec::new()).expect("optimize runs");
    let moves: Vec<_> = result
        .moves_as_indices()
        .into_iter()
        .map(|(node, to)| {
            let id = session
                .partitioning()
                .dfg()
                .nodes()
                .find(|(id, _)| id.index() == node as usize)
                .map(|(id, _)| id)
                .expect("trace names a known node");
            (id, PartitionId::new(to))
        })
        .collect();
    let replayed = session.apply_moves(&moves).expect("trace replays");
    assert_eq!(replayed.partitioning().grouping(), result.partitioning.grouping());
}

mod seed_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        // Same seed + same spec → identical move trace and digest, run
        // twice from scratch (no shared cache assumptions), and every
        // emitted move respects pinned nodes and keeps declared groups
        // together on one partition.
        #[test]
        fn seeded_runs_reproduce_and_respect_constraints(seed in 0u64..1_000) {
            let session = infeasible_start();
            let pinned = session.partitioning().grouping().members(0)[0];
            let group = session.partitioning().grouping().members(0)[1..3].to_vec();
            let spec = OptimizeSpec::new()
                .with_seed(seed)
                .with_max_moves(24)
                .with_pinned_node(pinned)
                .with_group(group.clone());

            let a = session.optimize(&spec).expect("optimize runs");
            let b = session.optimize(&spec).expect("optimize reruns");
            prop_assert_eq!(a.digest(), b.digest());
            prop_assert_eq!(&a.moves, &b.moves);

            for mv in &a.moves {
                prop_assert!(
                    !mv.nodes.contains(&pinned),
                    "pinned node moved in {mv:?}"
                );
                let touches = group.iter().filter(|n| mv.nodes.contains(n)).count();
                prop_assert!(
                    touches == 0 || touches == group.len(),
                    "group split by {mv:?}"
                );
            }
            // The group stays co-located in the final partitioning.
            let final_grouping = a.partitioning.grouping();
            let home = final_grouping.group_of(group[0]);
            for &n in &group[1..] {
                prop_assert_eq!(final_grouping.group_of(n), home);
            }
            // The pinned node never left its original partition.
            prop_assert_eq!(final_grouping.group_of(pinned), 0);
        }
    }
}
