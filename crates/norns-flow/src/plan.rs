//! The one `#NORNS` mapping table.
//!
//! A `stage_in`/`stage_out … all|scatter|gather|node:k` directive must
//! mean the same thing whether the simulated scheduler (`slurm-sim`'s
//! `ctld`) or the real-mode [`crate::executor`] runs it. [`plan`] is
//! the step both share after parsing: directive × node count × what
//! each node holds → the ordered [`Slot`]s, each naming *which* of the
//! job's nodes moves *which* path. It is pure — no client, no
//! simulator, no I/O beyond the caller's listing callback — and it is
//! the only code outside [`crate::script`] that matches on
//! [`Mapping`].
//!
//! | mapping   | [`Stage::In`]                                   | [`Stage::Out`] |
//! |-----------|-------------------------------------------------|----------------|
//! | `node:k`  | whole path, slot *k*                            | whole path, slot *k* |
//! | `all`     | whole path, every slot                          | whole path, first slot holding it |
//! | `gather`  | as `all`                                        | every slot's children (a slot that cannot be split moves whole) |
//! | `scatter` | sorted child *i* → slot *i mod n*; a plain file goes whole to slot 0 | as `gather` |
//!
//! Each world turns a slot into its own task type; whatever still
//! differs between them (which tier serves a stage-in, whether the
//! target already holds the data, `Move` vs copy + release) lives in
//! that per-slot conversion or in the listing callback, never in a
//! second copy of this table.

use crate::script::{split_location, Mapping, StageDirective};

/// Which half of the job lifecycle a directive belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    In,
    Out,
}

/// What a node holds at a directive's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listing {
    /// A directory and the names in it ([`plan`] sorts them).
    Children(Vec<String>),
    /// Something that moves as one unit (a plain file).
    NotADirectory,
    /// Nothing: on stage-out the node contributes no slot.
    Missing,
}

/// One staging leg: the `node_slot`-th node of the allocation moves
/// `origin` to `destination`. `index` is the slot's position in the
/// plan (the child's rank for `scatter`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slot {
    pub index: usize,
    pub node_slot: usize,
    pub origin: String,
    pub destination: String,
}

/// Append `child` to a `nsid://path` location.
pub fn join(location: &str, child: &str) -> String {
    if location.ends_with('/') {
        format!("{location}{child}")
    } else {
        format!("{location}/{child}")
    }
}

/// What can be refused before any node is assigned or any data exists
/// (at `sbatch` time): malformed locations, an empty allocation and a
/// `node:k` the job's node count cannot satisfy.
pub fn check(dir: &StageDirective, nodes: usize) -> Result<(), String> {
    for location in [&dir.origin, &dir.destination] {
        split_location(location).map_err(|e| e.to_string())?;
    }
    if nodes == 0 {
        return Err("a job needs at least one node".into());
    }
    match dir.mapping {
        Mapping::Node(k) if k >= nodes => Err(format!(
            "mapping node:{k} out of range for a {nodes}-node job"
        )),
        _ => Ok(()),
    }
}

/// Expand one directive over an allocation of `nodes` nodes.
///
/// `holds(slot)` reports what that node holds at the directive's
/// origin. Stage-in origins are one location whichever node asks, so
/// `scatter` lists it once (as slot 0); stage-out asks every slot in
/// order (`all` stops at the first holder). An `Err` from the callback
/// aborts the plan.
pub fn plan(
    stage: Stage,
    dir: &StageDirective,
    nodes: usize,
    mut holds: impl FnMut(usize) -> Result<Listing, String>,
) -> Result<Vec<Slot>, String> {
    check(dir, nodes)?;
    let mut slots: Vec<Slot> = Vec::new();
    // No child means the whole path.
    let mut push = |node_slot: usize, child: Option<&str>| {
        let under = |location: &str| match child {
            Some(child) => join(location, child),
            None => location.to_string(),
        };
        slots.push(Slot {
            index: slots.len(),
            node_slot,
            origin: under(&dir.origin),
            destination: under(&dir.destination),
        });
    };
    match (stage, dir.mapping) {
        (_, Mapping::Node(k)) => push(k, None),
        (Stage::In, Mapping::All | Mapping::Gather) => (0..nodes).for_each(|s| push(s, None)),
        (Stage::In, Mapping::Scatter) => match holds(0)? {
            Listing::Children(mut names) => {
                names.sort();
                for (i, name) in names.iter().enumerate() {
                    push(i % nodes, Some(name));
                }
            }
            Listing::NotADirectory => push(0, None),
            Listing::Missing => return Err(format!("cannot enumerate {}: not found", dir.origin)),
        },
        (Stage::Out, mapping) => {
            for slot in 0..nodes {
                match holds(slot)? {
                    Listing::Missing => continue,
                    // `all` holds full replicas: one moves, whole.
                    Listing::Children(mut names) if mapping != Mapping::All => {
                        names.sort();
                        names.iter().for_each(|name| push(slot, Some(name)));
                    }
                    _ => push(slot, None),
                }
                if mapping == Mapping::All {
                    break;
                }
            }
        }
    }
    Ok(slots)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    const ORIGIN: &str = "pmdk0://case";
    const DEST: &str = "lustre://run/case";

    fn dir(mapping: Mapping) -> StageDirective {
        StageDirective {
            origin: ORIGIN.into(),
            destination: DEST.into(),
            mapping,
        }
    }

    fn children(names: &[&str]) -> Listing {
        Listing::Children(names.iter().map(|n| n.to_string()).collect())
    }

    /// `(node_slot, child)` per planned slot, `""` standing for the
    /// whole path.
    type Legs = Vec<(usize, String)>;

    /// Plan with `per_slot[s]` as slot `s`'s listing.
    fn legs(stage: Stage, mapping: Mapping, per_slot: &[Listing]) -> Result<Legs, String> {
        let slots = plan(stage, &dir(mapping), per_slot.len(), |s| {
            Ok(per_slot[s].clone())
        })?;
        Ok(slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                assert_eq!(slot.index, i, "index is the position in the plan");
                let child = slot.origin.strip_prefix(ORIGIN).expect("under the origin");
                assert_eq!(slot.destination, format!("{DEST}{child}"));
                (slot.node_slot, child.trim_start_matches('/').to_string())
            })
            .collect())
    }

    fn whole(slots: &[usize]) -> Legs {
        slots.iter().map(|&s| (s, String::new())).collect()
    }

    fn named(pairs: &[(usize, &str)]) -> Legs {
        pairs.iter().map(|&(s, c)| (s, c.to_string())).collect()
    }

    #[test]
    fn every_phase_mapping_listing_cell() {
        use Mapping::{All, Gather, Node, Scatter};
        use Stage::{In, Out};
        let listed = children(&["b", "a"]); // unsorted on purpose
        let empty = children(&[]);
        let file = Listing::NotADirectory;
        let gone = Listing::Missing;
        let both = |l: &Listing| vec![l.clone(), l.clone()];
        let cases: Vec<(Stage, Mapping, Vec<Listing>, Legs)> = vec![
            // Whole-path mappings never look at the listing.
            (In, All, both(&gone), whole(&[0, 1])),
            (In, Gather, both(&gone), whole(&[0, 1])),
            (In, Node(1), both(&gone), whole(&[1])),
            (Out, Node(1), both(&gone), whole(&[1])),
            // Stage-in scatter: round-robin over the sorted names.
            (In, Scatter, both(&listed), named(&[(0, "a"), (1, "b")])),
            (In, Scatter, both(&empty), vec![]),
            (In, Scatter, both(&file), whole(&[0])),
            // More nodes than children: the tail of the allocation gets nothing.
            (
                In,
                Scatter,
                vec![listed.clone(); 4],
                named(&[(0, "a"), (1, "b")]),
            ),
            // Stage-out all: the first holder moves the whole path.
            (Out, All, both(&listed), whole(&[0])),
            (Out, All, both(&empty), whole(&[0])),
            (Out, All, both(&file), whole(&[0])),
            (Out, All, vec![gone.clone(), listed.clone()], whole(&[1])),
            (Out, All, both(&gone), vec![]),
            // Stage-out scatter/gather: every holder's children, per slot.
            (
                Out,
                Gather,
                both(&listed),
                named(&[(0, "a"), (0, "b"), (1, "a"), (1, "b")]),
            ),
            (
                Out,
                Scatter,
                both(&listed),
                named(&[(0, "a"), (0, "b"), (1, "a"), (1, "b")]),
            ),
            (Out, Gather, both(&empty), vec![]),
            (Out, Gather, both(&file), whole(&[0, 1])),
            (
                Out,
                Gather,
                vec![gone.clone(), children(&["x"])],
                named(&[(1, "x")]),
            ),
            (Out, Gather, both(&gone), vec![]),
            (Out, Scatter, both(&gone), vec![]),
        ];
        for (stage, mapping, per_slot, want) in cases {
            assert_eq!(
                legs(stage, mapping, &per_slot),
                Ok(want),
                "{stage:?} {mapping:?} over {per_slot:?}"
            );
        }
    }

    #[test]
    fn refusals_are_errors_not_empty_plans() {
        let never = |_: usize| -> Result<Listing, String> { panic!("refused before any listing") };
        for stage in [Stage::In, Stage::Out] {
            // node:k beyond the allocation: one error, in both phases.
            let err = plan(stage, &dir(Mapping::Node(2)), 2, never).unwrap_err();
            assert_eq!(err, "mapping node:2 out of range for a 2-node job");
            assert_eq!(check(&dir(Mapping::Node(2)), 2), Err(err));
            assert!(plan(stage, &dir(Mapping::All), 0, never).is_err());
            let mut malformed = dir(Mapping::All);
            malformed.destination = "no-scheme".into();
            assert!(plan(stage, &malformed, 2, never).is_err());
            // A listing failure aborts the plan.
            let err = plan(
                stage,
                &dir(Mapping::Scatter),
                2,
                |_| Err("wire down".into()),
            );
            assert_eq!(err, Err("wire down".to_string()));
        }
        // A stage-in scatter of nothing cannot be a silent no-op.
        let err = legs(Stage::In, Mapping::Scatter, &[Listing::Missing]).unwrap_err();
        assert!(err.contains("cannot enumerate pmdk0://case"), "{err}");
    }

    #[test]
    fn join_forms() {
        assert_eq!(join("ns://", "c"), "ns://c");
        assert_eq!(join("ns://d", "c"), "ns://d/c");
        assert_eq!(join("ns://d/", "c"), "ns://d/c");
    }

    /// `count` distinct names in an order chosen by `seed`.
    fn shuffled_names(count: usize, seed: u64) -> Vec<String> {
        let mut names: Vec<String> = (0..count).map(|i| format!("part{i:03}")).collect();
        let mut state = seed | 1;
        for i in (1..names.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            names.swap(i, state as usize % (i + 1));
        }
        names
    }

    proptest! {
        #[test]
        fn scatter_deals_every_child_once_round_robin(
            nodes in 1usize..9,
            count in 0usize..40,
            seed: u64,
        ) {
            let names = shuffled_names(count, seed);
            let mut sorted = names.clone();
            sorted.sort();
            let listing = vec![Listing::Children(names); nodes];
            let got = legs(Stage::In, Mapping::Scatter, &listing).unwrap();
            let want: Vec<(usize, String)> = sorted
                .iter()
                .enumerate()
                .map(|(i, name)| (i % nodes, name.clone()))
                .collect();
            // Every child exactly once, on slot rank mod n, whatever
            // order the listing arrived in.
            prop_assert_eq!(got, want);
        }

        #[test]
        fn gather_takes_every_child_from_its_holder_exactly_once(
            nodes in 1usize..9,
            count in 0usize..40,
            seed: u64,
        ) {
            // Deal the names to holders by a rule of the name alone,
            // each holder's listing in shuffled order.
            let names = shuffled_names(count, seed);
            let holder = |name: &str| (name.len() + name.bytes().map(usize::from).sum::<usize>()) % nodes;
            let listing: Vec<Listing> = (0..nodes)
                .map(|s| Listing::Children(names.iter().filter(|n| holder(n) == s).cloned().collect()))
                .collect();
            let got = legs(Stage::Out, Mapping::Gather, &listing).unwrap();
            let mut want: Vec<(usize, String)> =
                names.iter().map(|n| (holder(n), n.clone())).collect();
            want.sort();
            // Slot-major, name-sorted within a slot: a deterministic
            // order with every child once, moved by the node holding it.
            prop_assert_eq!(&got, &want);
            let again = legs(Stage::Out, Mapping::Scatter, &listing).unwrap();
            prop_assert_eq!(again, want);
        }
    }
}
