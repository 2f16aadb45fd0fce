//! The cluster's §4 claims — crash detection, restart and re-join, state
//! transfer, one primary partition, no lost acknowledged write — checked on
//! the seeded simulation in `sim/mod.rs`: the production node logic, frames
//! handed over in memory, virtual time. Each scenario runs on several
//! seeds of membership-frame loss; a random schedule then draws from every
//! fault kind at once.
//!
//! A failure prints its seed and the fault schedule that replays it. The
//! 10 000-seed soak is `#[ignore]`d:
//! `cargo test --release -p rndi-cluster --test sim_chaos -- --ignored soak`.

mod sim;

use hdns::{Op, RealmError};
use rndi_core::context::ContextExt;
use rndi_core::env::Environment;
use rndi_core::error::NamingError;
use rndi_net::proto::MemberState;
use rndi_providers::hdns::HdnsProviderContext;
use sim::{Faults, Sim, LOSSY, QUARANTINE_MS};

/// Seeds each fixed scenario runs on.
const SCENARIO_SEEDS: u64 = 8;
/// Seeds of the random schedule in every `cargo test`, and in the soak.
const SEEDS: u64 = 64;
const SOAK_SEEDS: u64 = 10_000;
/// Faults drawn per random schedule.
const STEPS: usize = 3;
/// Rounds without a change in any view or belief that count as settled:
/// longer than the phi suspect bound (≈ 20 rounds), so a node cut off from
/// its majority has shut its write gate by then.
const QUIET: usize = 25;

/// Every fault kind at once; the random schedule adds crashes, restarts
/// and cuts.
const ALL_FAULTS: Faults = Faults {
    drop_p: 0.1,
    dup_p: 0.05,
    shuffle: true,
    max_offset_ms: 10_000,
};

/// Rounds a drawn one-way cut lasts (see `random_schedule`).
const ONE_WAY_ROUNDS: usize = 12;

/// Run `scenario` on `seeds`, naming the seed that fails.
fn each_seed(seeds: std::ops::Range<u64>, scenario: impl Fn(u64) + std::panic::RefUnwindSafe) {
    for seed in seeds {
        if let Err(panic) = std::panic::catch_unwind(|| scenario(seed)) {
            eprintln!("sim_chaos: failing seed = {seed}");
            std::panic::resume_unwind(panic);
        }
    }
}

fn mkdir(path: &str) -> Op {
    Op::CreateContext {
        path: path.to_string(),
    }
}

#[test]
fn five_nodes_boot_from_one_seed_and_converge() {
    each_seed(0..SCENARIO_SEEDS, |seed| {
        let mut sim = Sim::boot(5, seed, LOSSY);
        let all = [0, 1, 2, 3, 4];
        sim.run_until("5-node convergence", |s| s.converged(&all));

        // One view everywhere, coordinated by the seed; `converged` also
        // holds every node open for writes.
        let reference = sim.members(0);
        assert_eq!(reference[0], "node-0", "seed leads the lineage");
        for i in all {
            assert_eq!(sim.members(i), reference);
        }

        // A write through any replica reaches every replica (the context
        // creation replicates too).
        sim.write_op(1, mkdir("services")).unwrap();
        sim.write(3, "services/db").unwrap();
        sim.run_until("replicated bind", |s| {
            all.iter().all(|&i| {
                let entry = s.node(i).hdns.lock().lookup("services/db");
                entry.is_some_and(|e| e.value() == b"services/db")
            })
        });
        sim.check_writes();
    });
}

#[test]
fn killed_node_is_suspected_then_excised_while_writes_continue() {
    each_seed(0..SCENARIO_SEEDS, |seed| {
        let mut sim = Sim::boot(4, seed, LOSSY);
        let survivors = [0, 1, 2];
        sim.run_until("4-node convergence", |s| s.converged(&[0, 1, 2, 3]));

        // A write burst straddles the crash of a non-coordinator replica.
        sim.write_op(0, mkdir("burst")).unwrap();
        for k in 0..5 {
            sim.write(0, &format!("burst/pre-{k}")).unwrap();
        }
        sim.crash(3);

        // Phi accrues: the survivors demote node-3, Suspect on the way to
        // Dead, while writes keep coming through the members.
        let held = |s: &Sim, state| {
            survivors
                .iter()
                .any(|&i| s.belief(i, "node-3") == Some(state))
        };
        let (mut suspected, mut during) = (false, 0);
        for k in 0.. {
            suspected |= held(&sim, MemberState::Suspect);
            let dead = |&i: &usize| sim.belief(i, "node-3") >= Some(MemberState::Dead);
            if survivors.iter().all(dead) {
                break;
            }
            assert!(k < 100, "node-3 not declared dead after {k} writes");
            during += sim.write(1 + k % 2, &format!("burst/during-{k}")).is_ok() as usize;
        }
        assert!(suspected, "node-3 went Dead without being Suspect first");
        assert!(
            during > 0,
            "no write was acknowledged while node-3 was dying"
        );

        sim.run_until("the view excises node-3", |s| {
            survivors
                .iter()
                .all(|&i| s.members(i) == ["node-0", "node-1", "node-2"])
        });
        // 3 of 4 known members is still a quorum: writes keep flowing.
        sim.write(1, "burst/post").unwrap();
        let acked = sim.acked();
        sim.run_until("every acknowledged write on every survivor", |s| {
            survivors
                .iter()
                .all(|&i| acked.iter().all(|path| s.holds(i, path)))
        });
        sim.check_writes();
    });
}

#[test]
fn restarted_node_rejoins_with_a_bumped_incarnation() {
    each_seed(0..SCENARIO_SEEDS, |seed| {
        let mut sim = Sim::boot(3, seed, LOSSY);
        let all = [0, 1, 2];
        sim.run_until("3-node convergence", |s| s.converged(&all));
        sim.write_op(0, mkdir("persist")).unwrap();
        sim.write(0, "persist/me").unwrap();

        sim.crash(2);
        sim.run_until("node-2 declared dead and excised", |s| {
            [0, 1].iter().all(|&i| {
                s.belief(i, "node-2") >= Some(MemberState::Dead)
                    && s.members(i) == ["node-0", "node-1"]
            })
        });
        sim.write(1, "persist/while-down").unwrap();

        // Restart under the same name at a fresh endpoint: the first
        // exchange teaches it the cluster holds it dead, it refutes with a
        // bumped incarnation, and the quarantine admits it once the
        // cooldown has been served.
        sim.restart(2);
        assert_eq!(sim.incarnation(2), 1);
        sim.run_until("node-2 re-admitted", |s| s.converged(&all));
        assert!(sim.incarnation(2) > 1, "rejoined at incarnation 1");
        let waited = sim.admitted_after(2).expect("admitted");
        assert!(waited >= QUARANTINE_MS, "admitted {waited} ms after dying");

        // State transfer on the re-admitting view restores what it missed.
        sim.run_until("state transfer to node-2", |s| {
            s.holds(2, "persist/me") && s.holds(2, "persist/while-down")
        });
        sim.check_writes();
    });
}

#[test]
fn partition_keeps_one_primary_and_loses_no_acknowledged_write() {
    each_seed(0..SCENARIO_SEEDS, |seed| {
        let mut sim = Sim::boot(5, seed, LOSSY);
        let all = [0, 1, 2, 3, 4];
        sim.run_until("5-node convergence", |s| s.converged(&all));
        sim.write_op(0, mkdir("split")).unwrap();
        sim.write(0, "split/before").unwrap();

        // The harder direction: the coordinator lands in the minority. The
        // majority's view keeps the lineage's order, so its senior survivor
        // coordinates.
        sim.cut(&[0, 1], &[2, 3, 4]);
        let mut majority = sim.members(0);
        majority.retain(|n| n != "node-0" && n != "node-1");
        sim.run_until("the majority forms its own view", |s| {
            (2..5).all(|i| s.members(i) == majority)
        });
        sim.run_until("the minority refuses writes", |s| {
            (0..2).all(|i| !s.node(i).state.lock().writes_allowed())
        });
        assert_eq!(sim.write(0, "split/minority"), Err(RealmError::NotPrimary));
        sim.write(2, "split/majority").unwrap();

        // A client of a minority node's provider (as its endpoint serves
        // it) is told so, typed, without the cluster taking a step.
        let provider =
            HdnsProviderContext::over(Box::new(sim.node(1).clone()), "node-1", &Environment::new());
        let asked_at = sim.now_ms;
        let refusal = provider.rebind_str("split/served-minority", "must-not-ack");
        assert!(
            matches!(&refusal, Err(NamingError::ServiceFailure { detail }) if detail.contains("primary partition")),
            "a minority node must refuse, typed: {refusal:?}"
        );
        assert_eq!(sim.now_ms, asked_at, "refused, not waited out");

        // Heal: refutation bumps and the quarantine re-admit the minority
        // into one lineage, which descends from the majority's view.
        sim.heal();
        sim.run_until("post-heal convergence", |s| s.converged(&all));
        let reference = sim.members(0);
        assert_eq!(reference[0], majority[0], "the lineage is the majority's");
        for i in all {
            assert_eq!(sim.members(i), reference);
        }
        let acked = sim.acked();
        sim.run_until("every acknowledged write on every node", |s| {
            all.iter()
                .all(|&i| acked.iter().all(|path| s.holds(i, path)))
        });
        // The ledger: split/minority was refused and is nowhere.
        sim.check_writes();
        for i in all {
            assert!(
                !sim.holds(i, "split/served-minority"),
                "leaked into node-{i}"
            );
        }
    });
}

/// Every fault kind at once: membership-frame loss, duplication of any
/// frame, a shuffled turn order and skewed clocks throughout, and `STEPS`
/// drawn crashes, restarts, splits, one-way cuts and heals. After each one
/// the cluster settles and a few writes go through random nodes; after a
/// final heal and restart every replica must agree with the write ledger.
///
/// Faults come one at a time, as the quorum argument assumes: a split or
/// a restart starts from one settled view with every state transfer done
/// (a cut that loses one is staged below), and three live nodes of five
/// stay on one side of any split. Without that, a candidate counts peers it
/// has not yet written off — two candidates then mint one seq twice
/// (staged below, with the other ways to that rival view).
fn random_schedule(seed: u64) {
    let mut sim = Sim::boot(5, seed, ALL_FAULTS);
    let all = [0, 1, 2, 3, 4];
    sim.run_until("boot", |s| s.converged(&all));
    // Faults start once every failure detector has a history: a cut in the
    // first rounds after boot is the rival-view bug staged below.
    sim.settle(QUIET);
    let named = |s: &Sim, i: usize| {
        let me = format!("node-{i}");
        s.live().into_iter().any(|j| s.members(j).contains(&me))
    };
    // One view of the live nodes, every replica holding what was acked.
    let settled = |s: &Sim| {
        let acked = s.acked();
        s.converged(&s.live())
            && s.live()
                .iter()
                .all(|&i| acked.iter().all(|p| s.holds(i, p)))
    };
    // Healed, settled, and failure detectors refilled (see boot).
    let reunite = |sim: &mut Sim| {
        sim.heal();
        sim.run_until("one view of the live nodes", settled);
        sim.settle(QUIET);
    };
    // The small side of the current split, and whether `minority` leaves a
    // live majority on the other.
    let mut minority: Vec<usize> = Vec::new();
    let majority_holds = |s: &Sim, minority: &[usize]| {
        s.live().iter().filter(|i| !minority.contains(i)).count() >= 3
    };
    for step in 0..STEPS {
        match sim.draw(5) {
            0 => {
                let live = sim.live();
                let victim = live[sim.draw(live.len())];
                let mut after = minority.clone();
                after.push(victim);
                if majority_holds(&sim, &after) {
                    sim.crash(victim);
                }
            }
            1 => {
                // Only once no view names the old process.
                let down = (0..5).find(|&i| !sim.is_live(i) && !named(&sim, i));
                if let Some(i) = down {
                    reunite(&mut sim);
                    minority.clear();
                    sim.restart(i);
                    sim.run_until("the restarted node rejoins", settled);
                    sim.settle(QUIET);
                }
            }
            2 => {
                let first = sim.draw(5);
                let second = (first + 1 + sim.draw(4)) % 5;
                let side = [first, second][..1 + sim.draw(2)].to_vec();
                if majority_holds(&sim, &side) {
                    reunite(&mut sim);
                    let rest: Vec<usize> = all.into_iter().filter(|i| !side.contains(i)).collect();
                    sim.cut(&side, &rest);
                    minority = side;
                }
            }
            3 => {
                // Shorter than the suspect bound: held for longer, a
                // one-way cut trips the gaps staged below. (A link the
                // split already cuts stays cut.)
                let from = sim.draw(5);
                let to = (from + 1 + sim.draw(4)) % 5;
                if minority.contains(&from) != minority.contains(&to) {
                    continue;
                }
                sim.cut_one_way(from, to);
                for _ in 0..ONE_WAY_ROUNDS {
                    sim.round();
                }
                sim.heal_one_way(from, to);
            }
            _ => {
                reunite(&mut sim);
                minority.clear();
            }
        }
        if !sim.settle(QUIET) {
            sim.note("not settled: no writes this step");
            continue;
        }
        for w in 0..2 {
            let live = sim.live();
            let via = live[sim.draw(live.len())];
            let _ = sim.write(via, &format!("s{step}-w{w}"));
        }
    }

    sim.heal();
    sim.run_until("the crashed leave every view", |s| {
        (0..5).all(|i| s.is_live(i) || !named(s, i))
    });
    for i in 0..5 {
        if !sim.is_live(i) {
            sim.restart(i);
        }
    }
    sim.run_until("one view of all five after the final heal", |s| {
        s.converged(&all)
    });
    sim.settle(QUIET);
    sim.check_writes();
}

#[test]
fn random_fault_schedules_lose_no_acknowledged_write() {
    each_seed(0..SEEDS, random_schedule);
}

#[test]
#[ignore = "soak: 10 000 seeds, run by name"]
fn soak_random_fault_schedules() {
    each_seed(0..SOAK_SEEDS, random_schedule);
}

/// The sequencer's coordinator acknowledges a write on its own immediate
/// self-delivery; no member confirms it. Cut off from both peers, it keeps
/// its write gate open until phi suspects them (≈ 200 ms at a 10 ms
/// interval), and a write it takes in that window is acknowledged — and
/// discarded at the heal, when it rejoins the majority's lineage as a
/// newcomer and takes the majority's state.
#[test]
#[ignore = "ROADMAP item 3: acks wait for a majority"]
fn a_coordinator_cut_from_its_majority_acknowledges_nothing() {
    each_seed(0..SCENARIO_SEEDS, |seed| {
        let mut sim = Sim::boot(3, seed, LOSSY);
        let all = [0, 1, 2];
        sim.run_until("boot", |s| s.converged(&all));
        sim.cut(&[0], &[1, 2]);
        let _ = sim.write(0, "cut-off-at-coordinator");
        sim.run_until("the majority re-forms", |s| s.converged(&[1, 2]));
        sim.heal();
        sim.run_until("one lineage after the heal", |s| s.converged(&all));
        sim.settle(QUIET);
        sim.check_writes();
    });
}

/// The other half of the same gap: a member that stops hearing its
/// coordinator while the coordinator still hears it stays in the view (the
/// candidate hears everyone) and misses every `Ordered` frame sent in the
/// meantime. The sequencer has no retransmission and only a newcomer gets
/// state, so after the heal it holds fewer writes than its peers for good.
#[test]
#[ignore = "ROADMAP item 3: a gap in gseq is a NAK"]
fn a_member_deaf_to_its_coordinator_catches_up_after_the_heal() {
    each_seed(0..SCENARIO_SEEDS, |seed| {
        let mut sim = Sim::boot(3, seed, LOSSY);
        let all = [0, 1, 2];
        sim.run_until("boot", |s| s.converged(&all));
        sim.cut_one_way(0, 2);
        sim.settle(QUIET);
        sim.write(1, "while-node-2-is-deaf").unwrap();
        sim.heal();
        sim.settle(QUIET);
        sim.check_writes();
    });
}

/// A third face of the same gap: quorum counts every member still believed
/// Alive, and a node cut off in the first rounds after boot (or after a
/// rejoin) has detectors with a history of a sample or two. The
/// coordinator's, fed by Syncs and group frames alike, reads Dead while
/// peers heard at a slower cadence are not even Suspect; the isolated node
/// is then the first alive member of the lineage, counts four votes of five
/// and mints a view at the seq the majority mints too.
#[test]
#[ignore = "ROADMAP item 3: a view takes effect on a majority's acks"]
fn a_node_cut_off_right_after_boot_mints_no_rival_view() {
    each_seed(0..SEEDS, |seed| {
        let mut sim = Sim::boot(5, seed, ALL_FAULTS);
        sim.run_until("boot", |s| s.converged(&[0, 1, 2, 3, 4]));
        sim.cut(&[1], &[0, 2, 3, 4]);
        sim.settle(QUIET);
    });
}

/// A fourth: a rumour of life drops the subject's failure detector until
/// the next direct contact, so a peer this node has only heard of since a
/// one-way cut is never suspected. Isolated later, the node still counts
/// it as an Alive vote — which is how a held one-way cut ends in a rival
/// view once the node is the first alive member of its lineage.
#[test]
#[ignore = "ROADMAP item 3: a view takes effect on a majority's acks"]
fn an_isolated_node_suspects_a_peer_it_only_heard_of() {
    each_seed(0..SCENARIO_SEEDS, |seed| {
        let mut sim = Sim::boot(5, seed, LOSSY);
        sim.run_until("boot", |s| s.converged(&[0, 1, 2, 3, 4]));
        sim.settle(QUIET);
        sim.cut_one_way(1, 4);
        sim.settle(QUIET);
        sim.cut(&[4], &[0, 1, 2, 3]);
        sim.settle(QUIET);
        let belief = sim.belief(4, "node-1");
        if belief == Some(MemberState::Alive) {
            sim.fail("node-4, cut off from everyone, still holds node-1 Alive");
        }
    });
}

/// A fifth: a joiner asks for state once, on the view that admits it. Cut
/// off from the coordinator before the `State` frame arrives, and kept in
/// the view by the side that holds the majority, it never asks again — and
/// misses every write made before it joined, for good.
#[test]
#[ignore = "ROADMAP item 3: rejoin and join are a NAK for the log"]
fn a_joiner_whose_state_transfer_is_cut_off_asks_again() {
    each_seed(0..SCENARIO_SEEDS, |seed| {
        let mut sim = Sim::boot(5, seed, LOSSY);
        let all = [0, 1, 2, 3, 4];
        sim.run_until("boot", |s| s.converged(&all));
        sim.cut(&[4], &[0, 1, 2, 3]);
        sim.run_until("node-4 excised", |s| s.converged(&[0, 1, 2, 3]));
        sim.write(1, "while-node-4-was-away").unwrap();
        sim.heal();
        sim.run_until("node-4 re-admitted", |s| s.converged(&all));
        let coordinator = sim.members(0)[0].clone();
        let c: usize = coordinator["node-".len()..].parse().unwrap();
        let rest: Vec<usize> = all.into_iter().filter(|&i| i != c).collect();
        sim.cut(&[c], &rest);
        sim.settle(QUIET);
        sim.heal();
        sim.run_until("one view after the heal", |s| s.converged(&all));
        sim.settle(QUIET);
        sim.check_writes();
    });
}

/// A sixth: a restart faster than failure detection. node-2 crashes and
/// comes back empty at a fresh endpoint before any peer holds it Dead, while
/// writes go through node-0. The peers adopt the new endpoint at the old
/// incarnation and the coordinator's view, which still names node-2, reaches
/// the new process with no state transfer: it is in the view without ever
/// having been held Dead (the quarantine check fails first), and it holds
/// none of the acknowledged writes, not even the one made after it started
/// (its parent context was created before).
#[test]
#[ignore = "ROADMAP item 3: rejoin and join are a NAK for the log"]
fn a_node_restarted_before_it_is_declared_dead_catches_up() {
    each_seed(0..SCENARIO_SEEDS, |seed| {
        let mut sim = Sim::boot(3, seed, LOSSY);
        let all = [0, 1, 2];
        sim.run_until("3-node convergence", |s| s.converged(&all));
        sim.write_op(0, mkdir("quick")).unwrap();
        sim.write(0, "quick/before").unwrap();

        sim.crash(2);
        for k in 0..2 {
            sim.write(0, &format!("quick/while-down-{k}")).unwrap();
        }
        let dead = |s: &Sim| {
            [0, 1]
                .iter()
                .any(|&i| s.belief(i, "node-2") >= Some(MemberState::Dead))
        };
        assert!(!dead(&sim), "node-2 was declared Dead before the restart");
        sim.restart(2);

        sim.write(0, "quick/after").unwrap();
        sim.run_until("3-node convergence after the restart", |s| {
            s.converged(&all)
        });
        let acked = sim.acked();
        sim.run_until("every acknowledged write on node-2", |s| {
            acked.iter().all(|path| s.holds(2, path))
        });
        sim.check_writes();
    });
}
