//! Model-based equivalence for the storage engine's four read views of
//! history — `versions`, `get_as_of`/as-of scans (timestamp travel),
//! and `get_latest_at`/snapshot scans (epoch travel) — checked against a
//! flat in-test model AND across two engine layouts that must agree:
//! a single-partition engine that never seals its memtable, and a
//! multi-partition engine with an aggressive seal threshold, so every
//! read crosses memtable-seal boundaries and Fibonacci partition
//! routing on one side but not the other.

use std::collections::BTreeMap;

use proptest::prelude::*;

use impliance::docmodel::{DocId, Document, Node, Path, SourceFormat, Value, Version};
use impliance::storage::{ScanRequest, StorageEngine, StorageOptions, Visible};

/// One committed document version as the model remembers it.
#[derive(Debug, Clone, Copy)]
struct ModelEntry {
    epoch: u64,
    version: Version,
    ts: i64,
    body: i64,
}

fn body_node(val: i64) -> Node {
    let mut root = Node::empty_map();
    root.set(&Path::parse("v"), Node::Value(Value::Int(val)));
    root
}

fn body_of(doc: &Document) -> i64 {
    doc.get_str_path("v")
        .and_then(|n| n.as_value())
        .and_then(|v| v.as_i64())
        .expect("committed docs carry an integer body")
}

fn never_seals() -> StorageEngine {
    StorageEngine::new(StorageOptions {
        partitions: 1,
        seal_threshold: usize::MAX,
        compression: false,
        encryption_key: None,
    })
}

fn seals_often() -> StorageEngine {
    StorageEngine::new(StorageOptions {
        partitions: 3,
        seal_threshold: 2,
        compression: true,
        encryption_key: None,
    })
}

/// Sorted `(id, version, body)` triples of a full scan at `visible`.
fn scan_triples(engine: &StorageEngine, visible: Visible) -> Vec<(u64, u32, i64)> {
    let req = ScanRequest {
        visible,
        ..ScanRequest::full()
    };
    let result = engine.scan(&req).expect("scan");
    let mut out: Vec<(u64, u32, i64)> = result
        .documents
        .iter()
        .map(|d| (d.id().0, d.version().0, body_of(d)))
        .collect();
    out.sort_unstable();
    out
}

/// Debug builds run proptest cases slower; keep the battery small there
/// and let `--release` run the full set.
const fn cases(release: u32) -> u32 {
    if cfg!(debug_assertions) {
        release / 4 + 2
    } else {
        release
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    // Random multi-doc commit batches over a small id space (forcing
    // version chains and intra-partition collisions), with seal points
    // sprinkled through the sealing engine's history. Every timestamp
    // and every epoch that ever existed is then replayed against both
    // engines and the model.
    #[test]
    fn time_travel_reads_agree_across_seal_and_partition_layouts(
        commits in proptest::collection::vec(
            (
                // (id, body) pairs; ids collide across commits to grow chains
                proptest::collection::vec((0u64..8, 0i64..1_000), 1..4),
                0i64..4,          // timestamp advance (0 = same-instant commits)
                any::<bool>(),    // seal the sealing engine after this commit?
            ),
            1..32,
        ),
    ) {
        let flat = never_seals();
        let sealed = seals_often();
        let mut model: BTreeMap<u64, Vec<ModelEntry>> = BTreeMap::new();
        let mut latest: BTreeMap<u64, Document> = BTreeMap::new();
        let mut ts = 0i64;
        let mut max_epoch = 0u64;

        for (batch, dt, seal) in &commits {
            ts += dt;
            let mut docs: Vec<Document> = Vec::new();
            for &(id, body) in batch {
                if docs.iter().any(|d| d.id().0 == id) {
                    continue; // one version per id per commit
                }
                let doc = match latest.get(&id) {
                    Some(prev) => prev.new_version(body_node(body), ts),
                    None => Document::new(
                        DocId(id),
                        SourceFormat::Json,
                        "equiv",
                        ts,
                        body_node(body),
                    ),
                };
                docs.push(doc);
            }
            let epoch_flat = flat.commit(&docs).expect("flat commit");
            let epoch_sealed = sealed.commit(&docs).expect("sealed commit");
            prop_assert_eq!(epoch_flat, epoch_sealed, "same history, same epochs");
            max_epoch = epoch_flat;
            for doc in docs {
                model.entry(doc.id().0).or_default().push(ModelEntry {
                    epoch: epoch_flat,
                    version: doc.version(),
                    ts,
                    body: body_of(&doc),
                });
                latest.insert(doc.id().0, doc);
            }
            if *seal {
                sealed.seal_all();
            }
        }

        // versions(): the full chain, oldest first, identical everywhere.
        for (&id, chain) in &model {
            let expect: Vec<Version> = chain.iter().map(|e| e.version).collect();
            prop_assert_eq!(&flat.versions(DocId(id)), &expect, "flat versions of {}", id);
            prop_assert_eq!(&sealed.versions(DocId(id)), &expect, "sealed versions of {}", id);
            for entry in chain {
                for engine in [&flat, &sealed] {
                    let doc = engine
                        .get_version(DocId(id), entry.version)
                        .expect("get_version")
                        .expect("stored version readable");
                    prop_assert_eq!(body_of(&doc), entry.body);
                }
            }
        }

        // Timestamp travel: at every instant that ever existed (plus the
        // instants just before and after history), get_as_of and
        // as-of scans return the model's "latest version at or before ts".
        let mut instants: Vec<i64> = model.values().flatten().map(|e| e.ts).collect();
        instants.push(-1);
        instants.push(ts + 1);
        instants.sort_unstable();
        instants.dedup();
        for &t in &instants {
            let mut expect: Vec<(u64, u32, i64)> = Vec::new();
            for (&id, chain) in &model {
                let visible = chain.iter().rev().find(|e| e.ts <= t);
                for engine in [&flat, &sealed] {
                    let got = engine.get_as_of(DocId(id), t).expect("get_as_of");
                    match visible {
                        Some(e) => {
                            let doc = got.expect("visible at ts");
                            prop_assert_eq!(doc.version(), e.version, "id {} at ts {}", id, t);
                            prop_assert_eq!(body_of(&doc), e.body, "id {} at ts {}", id, t);
                        }
                        None => prop_assert!(got.is_none(), "id {} must not exist at ts {}", id, t),
                    }
                }
                if let Some(e) = visible {
                    expect.push((id, e.version.0, e.body));
                }
            }
            expect.sort_unstable();
            let at = Visible::AsOf(t);
            prop_assert_eq!(&scan_triples(&flat, at), &expect, "flat as-of scan {}", t);
            prop_assert_eq!(&scan_triples(&sealed, at), &expect, "sealed as-of scan {}", t);
        }

        // Epoch travel: at every epoch from boot to now, point reads and
        // snapshot scans see the model's "latest version committed at or
        // below the epoch" — the same contract pinned queries rely on.
        for epoch in 0..=max_epoch {
            let mut expect: Vec<(u64, u32, i64)> = Vec::new();
            for (&id, chain) in &model {
                let visible = chain.iter().rev().find(|e| e.epoch <= epoch);
                for engine in [&flat, &sealed] {
                    let got = engine.get_latest_at(DocId(id), epoch).expect("get_latest_at");
                    match visible {
                        Some(e) => {
                            let doc = got.expect("visible at epoch");
                            prop_assert_eq!(doc.version(), e.version, "id {} at epoch {}", id, epoch);
                            prop_assert_eq!(body_of(&doc), e.body, "id {} at epoch {}", id, epoch);
                        }
                        None => {
                            prop_assert!(got.is_none(), "id {} must not exist at epoch {}", id, epoch)
                        }
                    }
                }
                if let Some(e) = visible {
                    expect.push((id, e.version.0, e.body));
                }
            }
            expect.sort_unstable();
            let at = Visible::AtEpoch(epoch);
            prop_assert_eq!(&scan_triples(&flat, at), &expect, "flat snapshot scan {}", epoch);
            prop_assert_eq!(&scan_triples(&sealed, at), &expect, "sealed snapshot scan {}", epoch);
        }

        // And the unpinned latest matches the final epoch's view.
        let unpinned = Visible::default();
        let pinned = Visible::AtEpoch(max_epoch);
        prop_assert_eq!(scan_triples(&flat, unpinned), scan_triples(&flat, pinned));
        prop_assert_eq!(scan_triples(&sealed, unpinned), scan_triples(&sealed, pinned));
    }
}
