//! Entity resolution across documents.
//!
//! §3.2: "additional relationships across documents can be identified by
//! running various analyses on all pairs of documents (conceptually). One
//! such example is entity relationship resolution." Comparing all pairs is
//! quadratic, so the resolver uses the standard blocking trick: mentions
//! are bucketed by a cheap key (first character + kind), and only
//! within-block pairs are compared with Jaro-Winkler similarity.

use std::collections::HashMap;

use impliance_docmodel::DocId;

use crate::scan::{EntityKind, EntityMention};

/// Jaro similarity of two strings in [0, 1].
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut matches = 0usize;
    let mut a_matched = Vec::with_capacity(a.len());
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        let mut found = false;
        for j in lo..hi {
            if !b_used[j] && b[j] == ca {
                b_used[j] = true;
                matches += 1;
                found = true;
                break;
            }
        }
        a_matched.push(found);
    }
    if matches == 0 {
        return 0.0;
    }
    // transpositions: compare matched sequences
    let a_seq: Vec<char> = a
        .iter()
        .zip(&a_matched)
        .filter(|(_, &m)| m)
        .map(|(&c, _)| c)
        .collect();
    let b_seq: Vec<char> = b
        .iter()
        .zip(&b_used)
        .filter(|(_, &u)| u)
        .map(|(&c, _)| c)
        .collect();
    let transpositions = a_seq.iter().zip(&b_seq).filter(|(x, y)| x != y).count() / 2;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro-Winkler similarity: Jaro boosted by shared prefix (up to 4 chars).
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// A resolved link: two documents mention (approximately) the same entity.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedLink {
    /// First document.
    pub a: DocId,
    /// Second document.
    pub b: DocId,
    /// The entity kind linked on.
    pub kind: EntityKind,
    /// Canonical (most frequent) surface form of the cluster.
    pub canonical: String,
    /// Pairwise similarity that produced the link (1.0 for exact).
    pub similarity: f64,
}

/// Accumulating cross-document entity resolver.
#[derive(Debug)]
pub struct EntityResolver {
    /// similarity threshold in (0, 1]; pairs at or above link.
    threshold: f64,
    /// block key → (normalized, kind, docs)
    blocks: HashMap<(EntityKind, char), Vec<(String, DocId)>>,
}

impl EntityResolver {
    /// Create a resolver with a Jaro-Winkler link threshold (e.g. 0.92).
    pub fn new(threshold: f64) -> EntityResolver {
        EntityResolver {
            threshold: threshold.clamp(0.0, 1.0),
            blocks: HashMap::new(),
        }
    }

    fn block_key(kind: EntityKind, normalized: &str) -> (EntityKind, char) {
        (kind, normalized.chars().next().unwrap_or('\0'))
    }

    /// Register a document's mentions and return the new links they
    /// create against previously registered documents.
    pub fn observe(&mut self, doc: DocId, mentions: &[EntityMention]) -> Vec<ResolvedLink> {
        let mut links = Vec::new();
        for m in mentions {
            if m.normalized.is_empty() {
                continue;
            }
            let key = Self::block_key(m.kind, &m.normalized);
            let block = self.blocks.entry(key).or_default();
            for (existing_norm, existing_doc) in block.iter() {
                if *existing_doc == doc {
                    continue;
                }
                let sim = if existing_norm == &m.normalized {
                    1.0
                } else {
                    jaro_winkler(existing_norm, &m.normalized)
                };
                if sim >= self.threshold {
                    links.push(ResolvedLink {
                        a: *existing_doc,
                        b: doc,
                        kind: m.kind,
                        canonical: existing_norm.clone(),
                        similarity: sim,
                    });
                }
            }
            block.push((m.normalized.clone(), doc));
        }
        // de-duplicate multiple links between the same pair (keep best)
        links.sort_by(|x, y| {
            (x.a, x.b, x.kind)
                .cmp(&(y.a, y.b, y.kind))
                .then(y.similarity.total_cmp(&x.similarity))
        });
        links.dedup_by_key(|l| (l.a, l.b, l.kind));
        links
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mention(kind: EntityKind, norm: &str) -> EntityMention {
        EntityMention {
            kind,
            text: norm.to_string(),
            normalized: norm.to_string(),
            offset: 0,
        }
    }

    #[test]
    fn jaro_identities() {
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("abc", ""), 0.0);
        assert_eq!(jaro("abc", "abc"), 1.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_known_values() {
        // classic reference pair
        let jw = jaro_winkler("martha", "marhta");
        assert!((jw - 0.9611).abs() < 0.01, "martha/marhta = {jw}");
        let jw2 = jaro_winkler("dwayne", "duane");
        assert!((jw2 - 0.84).abs() < 0.02, "dwayne/duane = {jw2}");
    }

    #[test]
    fn prefix_boost() {
        assert!(jaro_winkler("prefixed", "prefixes") > jaro("prefixed", "prefixes"));
    }

    #[test]
    fn exact_mentions_link() {
        let mut r = EntityResolver::new(0.92);
        assert!(r
            .observe(DocId(1), &[mention(EntityKind::Person, "grace hopper")])
            .is_empty());
        let links = r.observe(DocId(2), &[mention(EntityKind::Person, "grace hopper")]);
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].a, DocId(1));
        assert_eq!(links[0].b, DocId(2));
        assert_eq!(links[0].similarity, 1.0);
    }

    #[test]
    fn fuzzy_mentions_link_above_threshold() {
        let mut r = EntityResolver::new(0.90);
        r.observe(DocId(1), &[mention(EntityKind::Person, "jon smith")]);
        let links = r.observe(DocId(2), &[mention(EntityKind::Person, "john smith")]);
        assert_eq!(
            links.len(),
            1,
            "jw(jon smith, john smith) should exceed 0.90"
        );
    }

    #[test]
    fn different_kinds_never_link() {
        let mut r = EntityResolver::new(0.5);
        r.observe(DocId(1), &[mention(EntityKind::Person, "austin")]);
        let links = r.observe(DocId(2), &[mention(EntityKind::Location, "austin")]);
        assert!(links.is_empty());
    }

    #[test]
    fn blocking_prevents_cross_initial_comparison() {
        let mut r = EntityResolver::new(0.0); // would link anything compared
        r.observe(DocId(1), &[mention(EntityKind::Person, "alice")]);
        let links = r.observe(DocId(2), &[mention(EntityKind::Person, "zelda")]);
        assert!(
            links.is_empty(),
            "different first letters are never compared"
        );
    }

    #[test]
    fn same_doc_does_not_self_link() {
        let mut r = EntityResolver::new(0.9);
        r.observe(DocId(1), &[mention(EntityKind::Person, "ada")]);
        let links = r.observe(DocId(1), &[mention(EntityKind::Person, "ada")]);
        assert!(links.is_empty());
    }

    #[test]
    fn duplicate_pair_links_deduplicated() {
        let mut r = EntityResolver::new(0.9);
        r.observe(
            DocId(1),
            &[
                mention(EntityKind::Person, "ada"),
                mention(EntityKind::Person, "ada"),
            ],
        );
        let links = r.observe(DocId(2), &[mention(EntityKind::Person, "ada")]);
        assert_eq!(links.len(), 1);
    }
}
