//! Security, auditing, and lineage (§4).
//!
//! "It needs to support policy-driven access controls in such a way that
//! information is provided to the right people, and only to the right
//! people. Another aspect of security is monitoring and auditing.
//! Impliance should be able to trace the lineage of a piece of data as
//! well as queries that have accessed it."
//!
//! * [`AccessPolicy`] — collection-level grants per principal, with a
//!   default-deny posture for restricted collections.
//! * [`AuditLog`] — an append-only record of every guarded access: who,
//!   what operation, which documents. Supports the Hippocratic-database
//!   style question "which queries touched this document?".
//! * [`lineage`] — walks a document's provenance: its version chain, the
//!   documents it annotates, and the annotations derived from it.

use std::collections::{HashMap, HashSet};

use impliance_docmodel::{DocId, Document, Version};
use impliance_obs::{TrackedMutex, TrackedRwLock};

use crate::appliance::Impliance;
use crate::error::Error;
use crate::query_api::QueryRequest;

/// A named principal (user or role).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Principal(pub String);

impl Principal {
    /// Convenience constructor.
    pub fn new(name: &str) -> Principal {
        Principal(name.to_string())
    }
}

/// Collection-level access policy. Collections not mentioned are open
/// (the appliance default); once a collection is restricted, only
/// granted principals may read it.
#[derive(Debug)]
pub struct AccessPolicy {
    restricted: TrackedRwLock<HashMap<String, HashSet<Principal>>>,
}

impl Default for AccessPolicy {
    fn default() -> AccessPolicy {
        AccessPolicy {
            restricted: TrackedRwLock::new("core.audit.restricted", HashMap::new()),
        }
    }
}

impl AccessPolicy {
    /// An empty (fully open) policy.
    pub fn new() -> AccessPolicy {
        AccessPolicy::default()
    }

    /// Restrict a collection; only `granted` principals may read it.
    pub fn restrict(&self, collection: &str, granted: &[Principal]) {
        self.restricted
            .write()
            .insert(collection.to_string(), granted.iter().cloned().collect());
    }

    /// Additionally grant a principal on an already-restricted collection.
    pub fn grant(&self, collection: &str, principal: Principal) {
        self.restricted
            .write()
            .entry(collection.to_string())
            .or_default()
            .insert(principal);
    }

    /// May `principal` read `collection`?
    pub fn allows(&self, principal: &Principal, collection: &str) -> bool {
        match self.restricted.read().get(collection) {
            None => true,
            Some(granted) => granted.contains(principal),
        }
    }

    /// Restricted collections, for diagnostics.
    pub fn restricted_collections(&self) -> Vec<String> {
        let mut out: Vec<String> = self.restricted.read().keys().cloned().collect();
        out.sort();
        out
    }
}

/// One audited access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Monotone sequence number.
    pub seq: u64,
    /// Acting principal.
    pub principal: Principal,
    /// Operation label (e.g. `"search"`, `"sql"`, `"get"`).
    pub operation: String,
    /// Documents returned to the principal.
    pub docs: Vec<DocId>,
    /// Whether policy denied (then `docs` holds what was withheld).
    pub denied: bool,
}

/// Append-only audit log.
#[derive(Debug)]
pub struct AuditLog {
    records: TrackedMutex<Vec<AuditRecord>>,
}

impl Default for AuditLog {
    fn default() -> AuditLog {
        AuditLog {
            records: TrackedMutex::new("core.audit.records", Vec::new()),
        }
    }
}

impl AuditLog {
    /// An empty log.
    pub fn new() -> AuditLog {
        AuditLog::default()
    }

    /// Append a record; returns its sequence number.
    pub fn record(
        &self,
        principal: &Principal,
        operation: &str,
        docs: Vec<DocId>,
        denied: bool,
    ) -> u64 {
        let mut records = self.records.lock();
        let seq = records.len() as u64;
        records.push(AuditRecord {
            seq,
            principal: principal.clone(),
            operation: operation.to_string(),
            docs,
            denied,
        });
        seq
    }

    /// Every record, in order.
    pub fn records(&self) -> Vec<AuditRecord> {
        self.records.lock().clone()
    }

    /// The Hippocratic question: which accesses touched this document?
    pub fn accesses_of(&self, doc: DocId) -> Vec<AuditRecord> {
        self.records
            .lock()
            .iter()
            .filter(|r| r.docs.contains(&doc))
            .cloned()
            .collect()
    }

    /// Accesses performed by a principal.
    pub fn accesses_by(&self, principal: &Principal) -> Vec<AuditRecord> {
        self.records
            .lock()
            .iter()
            .filter(|r| &r.principal == principal)
            .cloned()
            .collect()
    }
}

/// A guarded view over an appliance: reads go through policy and land in
/// the audit log. Constructed per principal. A read that fails (shed,
/// cut short under load, corrupt, …) returns its error and is not logged
/// as an access.
pub struct GuardedAppliance<'a> {
    imp: &'a Impliance,
    policy: &'a AccessPolicy,
    log: &'a AuditLog,
    principal: Principal,
}

impl<'a> GuardedAppliance<'a> {
    /// Wrap an appliance for one principal.
    pub fn new(
        imp: &'a Impliance,
        policy: &'a AccessPolicy,
        log: &'a AuditLog,
        principal: Principal,
    ) -> GuardedAppliance<'a> {
        GuardedAppliance {
            imp,
            policy,
            log,
            principal,
        }
    }

    /// Policy-filtered keyword search: hits in restricted collections the
    /// principal cannot read are withheld (and the withholding audited).
    pub fn search(&self, query: &str, k: usize) -> Result<Vec<DocId>, Error> {
        let request = QueryRequest::builder("")
            .match_text("*", query)
            .top_k(k * 4) // overfetch to refill
            .build();
        let mut allowed = Vec::new();
        let mut withheld = Vec::new();
        for hit in self.imp.query(request)?.whole()?.hits() {
            let Some(doc) = self.imp.get(hit.id)? else {
                continue;
            };
            if !self.policy.allows(&self.principal, doc.collection()) {
                withheld.push(hit.id);
            } else if allowed.len() < k {
                allowed.push(hit.id);
            }
        }
        if !withheld.is_empty() {
            self.log
                .record(&self.principal, "search(withheld)", withheld, true);
        }
        self.log
            .record(&self.principal, "search", allowed.clone(), false);
        Ok(allowed)
    }

    /// Policy-checked point read: `None` for a missing document and for
    /// one the principal may not read (the denial is audited).
    pub fn get(&self, id: DocId) -> Result<Option<Document>, Error> {
        let Some(doc) = self.imp.get(id)? else {
            return Ok(None);
        };
        let allowed = self.policy.allows(&self.principal, doc.collection());
        self.log.record(&self.principal, "get", vec![id], !allowed);
        Ok(allowed.then_some(doc))
    }
}

/// One lineage edge of a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineageEntry {
    /// An earlier version of the same document.
    PriorVersion(Version),
    /// This document annotates another (derived-from).
    Annotates(DocId),
    /// Another document was derived from this one.
    AnnotatedBy(DocId),
}

/// Trace the lineage of a document: version history plus derivation
/// edges recorded by the discovery pipeline.
pub fn lineage(imp: &Impliance, id: DocId) -> Result<Vec<LineageEntry>, Error> {
    let versions = imp.versions(id);
    let prior = &versions[..versions.len().saturating_sub(1)];
    let mut out: Vec<LineageEntry> = prior
        .iter()
        .map(|v| LineageEntry::PriorVersion(*v))
        .collect();
    if let Some(subject) = imp.get(id)?.and_then(|doc| doc.subject()) {
        out.push(LineageEntry::Annotates(subject));
    }
    for source in imp.join_index.sources(id, "annotates") {
        out.push(LineageEntry::AnnotatedBy(source));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appliance::test_support::{drain_all, put};
    use crate::config::ApplianceConfig;
    use crate::Input;

    fn fixture() -> (Impliance, AccessPolicy, AuditLog) {
        let imp = Impliance::boot(ApplianceConfig::default());
        put(
            &imp,
            Input::Text("public", "Grace Hopper shares zebra knowledge from Seattle"),
        );
        put(
            &imp,
            Input::Text("hr.salaries", "confidential zebra compensation data"),
        );
        drain_all(&imp);
        let policy = AccessPolicy::new();
        policy.restrict("hr.salaries", &[Principal::new("hr-admin")]);
        (imp, policy, AuditLog::new())
    }

    #[test]
    fn policy_defaults_open_then_restricts() {
        let p = AccessPolicy::new();
        let alice = Principal::new("alice");
        assert!(p.allows(&alice, "anything"));
        p.restrict("secrets", &[]);
        assert!(!p.allows(&alice, "secrets"));
        p.grant("secrets", alice.clone());
        assert!(p.allows(&alice, "secrets"));
        assert_eq!(p.restricted_collections(), vec!["secrets"]);
    }

    #[test]
    fn guarded_search_filters_by_collection() {
        let (imp, policy, log) = fixture();
        let alice = GuardedAppliance::new(&imp, &policy, &log, Principal::new("alice"));
        let hits = alice.search("zebra", 10).unwrap();
        assert_eq!(hits.len(), 1, "only the public doc");
        let admin = GuardedAppliance::new(&imp, &policy, &log, Principal::new("hr-admin"));
        let hits = admin.search("zebra", 10).unwrap();
        assert_eq!(hits.len(), 2, "admin sees both");
    }

    #[test]
    fn guarded_get_denies_and_audits() {
        let (imp, policy, log) = fixture();
        let alice = GuardedAppliance::new(&imp, &policy, &log, Principal::new("alice"));
        let restricted = DocId(2);
        assert!(alice.get(restricted).unwrap().is_none());
        assert!(alice.get(DocId(1)).unwrap().is_some());
        let denials: Vec<_> = log.records().into_iter().filter(|r| r.denied).collect();
        assert_eq!(denials.len(), 1);
        assert_eq!(denials[0].docs, vec![restricted]);
    }

    #[test]
    fn audit_answers_who_touched_what() {
        let (imp, policy, log) = fixture();
        let alice = GuardedAppliance::new(&imp, &policy, &log, Principal::new("alice"));
        let bob = GuardedAppliance::new(&imp, &policy, &log, Principal::new("bob"));
        alice.search("zebra", 10).unwrap();
        bob.get(DocId(1)).unwrap();
        let touched = log.accesses_of(DocId(1));
        assert_eq!(touched.len(), 2);
        assert_eq!(log.accesses_by(&Principal::new("bob")).len(), 1);
        // sequence numbers are monotone
        let records = log.records();
        for w in records.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn lineage_traces_versions_and_annotations() {
        let (imp, _, _) = fixture();
        let id = DocId(1);
        // add a version
        let mut root = imp.get(id).unwrap().unwrap().root().clone();
        root.set(
            &impliance_docmodel::Path::parse("body"),
            impliance_docmodel::Node::scalar("revised zebra knowledge"),
        );
        imp.update(id, root).unwrap();
        let lin = lineage(&imp, id).unwrap();
        assert!(lin.contains(&LineageEntry::PriorVersion(Version(1))));
        // discovery attached annotations to the doc
        assert!(
            lin.iter()
                .any(|e| matches!(e, LineageEntry::AnnotatedBy(_))),
            "expected annotation lineage: {lin:?}"
        );
        // and the annotation's own lineage points back
        if let Some(LineageEntry::AnnotatedBy(ann)) = lin
            .iter()
            .find(|e| matches!(e, LineageEntry::AnnotatedBy(_)))
        {
            let ann_lineage = lineage(&imp, *ann).unwrap();
            assert!(ann_lineage.contains(&LineageEntry::Annotates(id)));
        }
    }
}
