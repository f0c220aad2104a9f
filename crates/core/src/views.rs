//! System-supplied views over annotations (Figure 2).
//!
//! "These derived annotations and associations may themselves be exposed
//! to SQL applications through system-supplied views that map the native
//! data types back into relational rows. Exploiting views in this way
//! facilitates adding new functionality to existing applications without
//! having to rewrite the entire application to use new APIs."
//!
//! Annotation documents hold nested mention sequences; the views unnest
//! them into flat rows keyed by the *subject* document id, so a plain
//! relational consumer can join extracted facts against base data. Each
//! view reads its annotation collection through [`Impliance::query`], so
//! it is admitted, pinned and watermarked like any other read, and
//! returns its rows together with the freshness of that one read — or
//! `Overloaded` when a degraded admission cut the read short.

use impliance_docmodel::{DocId, Document, Value};
use impliance_query::Row;

use crate::appliance::Impliance;
use crate::error::Error;
use crate::query_api::QueryRequest;

/// How fresh a view's (or any answer's) annotations were at the snapshot
/// it was computed from: which commits it saw, and how far background
/// discovery had caught up at that point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewFreshness {
    /// The pinned epoch the read executed at.
    pub snapshot_epoch: u64,
    /// The annotation watermark, read before the pin: ingest commits
    /// above this epoch may not be represented yet (they are never
    /// *partially* represented).
    pub annotation_epoch: u64,
}

impl ViewFreshness {
    /// Freshness in `[0, 1]`: `1.0` means discovery had annotated every
    /// commit visible to the snapshot.
    pub fn ratio(&self) -> f64 {
        if self.snapshot_epoch == 0 {
            1.0
        } else {
            self.annotation_epoch.min(self.snapshot_epoch) as f64 / self.snapshot_epoch as f64
        }
    }
}

/// Read one annotation collection and map each annotation document to
/// rows, sorted by `key`.
fn view<K: Ord>(
    imp: &Impliance,
    collection: &str,
    rows_of: impl Fn(&Document, Value, &mut Vec<Row>),
    key: impl Fn(&Row) -> K,
) -> Result<(Vec<Row>, ViewFreshness), Error> {
    let resp = imp
        .query(QueryRequest::builder(format!("SELECT * FROM {collection}")).build())?
        .whole()?;
    let mut rows = Vec::new();
    for ann in resp.docs() {
        let subject = ann.subject().map(|s| s.0 as i64).unwrap_or(-1);
        rows_of(ann, Value::Int(subject), &mut rows);
    }
    rows.sort_by_key(key);
    Ok((rows, resp.freshness()))
}

/// A leaf of `node` at `field`, or `Null`.
fn field(node: &impliance_docmodel::Node, field: &str) -> Value {
    node.get_str_path(field)
        .and_then(|n| n.as_value())
        .cloned()
        .unwrap_or(Value::Null)
}

/// The entity view: one row per extracted mention, tied to its subject
/// document (`subject, kind, text, normalized, path`).
pub fn entity_view(imp: &Impliance) -> Result<(Vec<Row>, ViewFreshness), Error> {
    view(
        imp,
        "annotations.entities",
        |ann, subject, rows| {
            let mentions = ann.get_str_path("mentions").and_then(|n| n.as_seq());
            for m in mentions.into_iter().flatten() {
                rows.push(Row::from_pairs([
                    ("subject".to_string(), subject.clone()),
                    ("kind".to_string(), field(m, "kind")),
                    ("text".to_string(), field(m, "text")),
                    ("normalized".to_string(), field(m, "normalized")),
                    ("path".to_string(), field(m, "path")),
                ]));
            }
        },
        |r| (r.get("subject").as_i64(), r.get("normalized").render()),
    )
}

/// The sentiment view: subject id, label, score.
pub fn sentiment_view(imp: &Impliance) -> Result<(Vec<Row>, ViewFreshness), Error> {
    view(
        imp,
        "annotations.sentiment",
        |ann, subject, rows| {
            rows.push(Row::from_pairs([
                ("subject".to_string(), subject),
                ("label".to_string(), field(ann.root(), "label")),
                ("score".to_string(), field(ann.root(), "score")),
            ]));
        },
        |r| r.get("subject").as_i64(),
    )
}

/// Join the entity view against a base collection: rows of
/// `(subject, kind, normalized, <join_path value>)` where the subject
/// document's `join_path` leaf is attached. This is §2.1.2's
/// content-plus-data composition as a reusable view.
pub fn entities_with_base(imp: &Impliance, base_join_path: &str) -> Result<Vec<Row>, Error> {
    let (entities, _) = entity_view(imp)?;
    let column = format!("base_{}", base_join_path.replace('.', "_"));
    let mut rows = Vec::new();
    for mut e in entities {
        let subject = e.get("subject").as_i64().filter(|s| *s >= 0);
        let doc = subject.map(|s| imp.get(DocId(s as u64))).transpose()?;
        let Some(doc) = doc.flatten() else {
            continue;
        };
        let base_value = doc
            .root()
            .values_at(base_join_path)
            .next()
            .cloned()
            .unwrap_or(Value::Null);
        e.columns.insert(column.clone(), base_value);
        rows.push(e);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appliance::test_support::{drain_all, put};
    use crate::config::ApplianceConfig;
    use crate::{Input, NoFaults, Stage};

    fn appliance_with_discovery() -> Impliance {
        let imp = Impliance::boot(ApplianceConfig::default());
        put(
            &imp,
            Input::Json(
                "claims",
                r#"{"claimant": "Grace Hopper", "notes": "Grace Hopper was very unhappy, car broken in Seattle", "amount": 1500}"#,
            ),
        );
        put(
            &imp,
            Input::Json(
                "claims",
                r#"{"claimant": "Ada Lovelace", "notes": "Ada Lovelace is happy, great service, thanks", "amount": 200}"#,
            ),
        );
        drain_all(&imp);
        imp
    }

    #[test]
    fn entity_view_flattens_mentions() {
        let imp = appliance_with_discovery();
        let (rows, _) = entity_view(&imp).unwrap();
        assert!(!rows.is_empty());
        // every row has the expected columns
        for r in &rows {
            assert!(r.get("subject").as_i64().is_some());
            assert!(!r.get("kind").is_null());
        }
        // persons were found
        assert!(rows
            .iter()
            .any(|r| r.get("kind") == &Value::Str("person".into())
                && r.get("normalized") == &Value::Str("grace hopper".into())));
        assert!(rows
            .iter()
            .any(|r| r.get("kind") == &Value::Str("location".into())));
    }

    #[test]
    fn sentiment_view_labels_subjects() {
        let imp = appliance_with_discovery();
        let (rows, _) = sentiment_view(&imp).unwrap();
        assert_eq!(rows.len(), 2);
        let labels: Vec<String> = rows.iter().map(|r| r.get("label").render()).collect();
        assert!(labels.contains(&"negative".to_string()));
        assert!(labels.contains(&"positive".to_string()));
    }

    #[test]
    fn entities_join_back_to_base_data() {
        let imp = appliance_with_discovery();
        let rows = entities_with_base(&imp, "amount").unwrap();
        assert!(!rows.is_empty());
        // the unhappy Grace Hopper claim carries amount 1500
        let grace = rows
            .iter()
            .find(|r| r.get("normalized") == &Value::Str("grace hopper".into()))
            .expect("grace row");
        assert_eq!(grace.get("base_amount"), &Value::Int(1500));
    }

    #[test]
    fn views_empty_before_discovery() {
        let imp = Impliance::boot(ApplianceConfig::default());
        put(&imp, Input::Text("t", "Grace Hopper in Seattle"));
        // no background drain: annotations don't exist yet
        assert!(entity_view(&imp).unwrap().0.is_empty());
        assert!(sentiment_view(&imp).unwrap().0.is_empty());
    }

    #[test]
    fn view_freshness_tracks_discovery_lag() {
        let imp = Impliance::boot(ApplianceConfig::default());
        put(&imp, Input::Text("t", "Grace Hopper in Seattle"));
        // Before discovery runs the view is stale: the snapshot sees the
        // ingest commit but the annotation watermark is behind it.
        let (rows, f) = entity_view(&imp).unwrap();
        assert!(rows.is_empty());
        assert!(f.snapshot_epoch >= 1);
        assert_eq!(f.annotation_epoch, 0);
        assert!(f.ratio() < 1.0, "{f:?}");
        drain_all(&imp);
        let (rows, f) = entity_view(&imp).unwrap();
        assert!(!rows.is_empty());
        assert_eq!(f.ratio(), 1.0, "drained: discovery caught up, {f:?}");
    }

    /// A view's freshness is the watermark read *before* its snapshot
    /// was pinned: beside a writer whose discovery keeps committing, no
    /// view may claim annotations its snapshot cannot contain.
    #[test]
    fn view_watermarks_never_pass_the_snapshot_beside_a_writer() {
        let imp = appliance_with_discovery();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..150 {
                    put(
                        &imp,
                        Input::Text("notes", &format!("Ada Lovelace {i} in Boston")),
                    );
                    imp.maintain(Stage::Discovery, None, &NoFaults);
                }
                done.store(true, std::sync::atomic::Ordering::Release);
            });
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                for (_, f) in [entity_view(&imp).unwrap(), sentiment_view(&imp).unwrap()] {
                    assert!(
                        f.annotation_epoch <= f.snapshot_epoch,
                        "annotation watermark ahead of the view's snapshot: {f:?}"
                    );
                }
            }
        });
    }
}
