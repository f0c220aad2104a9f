//! Workspace symbol table: every parsed `fn` item, indexed for call
//! resolution.
//!
//! Resolution is name-based (there is no type checker):
//!
//! * `Qual::name(..)` resolves to fns whose impl owner or implemented
//!   trait is `Qual` (with `Self::name(..)` resolved against the calling
//!   fn's owner);
//! * `recv.name(..)` method calls resolve to **every** workspace method
//!   of that name (a fn declared in an `impl` or `trait` block) —
//!   over-approximate, since the receiver type is unknown — except the
//!   [`AMBIENT_METHODS`] below; a free fn is never a method callee;
//! * bare `name(..)` calls resolve to free fns of that name only.
//!
//! `AMBIENT_METHODS` is the documented under-approximation: method names
//! that collide with ubiquitous std-container/Option/Result/iterator
//! methods. Resolving `map.get(..)` to every workspace `get` would wire
//! the call graph into a near-clique of false edges, so these names are
//! never resolved; a workspace method that shares one of these names is
//! invisible to the interprocedural lints (rename it or review manually).

use std::collections::HashMap;

use crate::parser::{FnItem, ParsedFile};

/// Method names never resolved because std defines them on types used
/// everywhere (see module docs). Includes the atomic/`Ordering` method
/// family (`load`, `store`, `fetch_add`, ...): counters are read under
/// locks all over the workspace, and resolving `x.load(..)` to a
/// workspace fn named `load` wires false blocking edges into L11.
pub const AMBIENT_METHODS: &[&str] = &[
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_deref",
    "as_mut",
    "as_ref",
    "as_str",
    "bytes",
    "chars",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "compare_exchange",
    "contains",
    "contains_key",
    "count",
    "dedup",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "err",
    "extend",
    "fetch_add",
    "fetch_and",
    "fetch_max",
    "fetch_min",
    "fetch_or",
    "fetch_sub",
    "fetch_xor",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "fmt",
    "fold",
    "get",
    "get_mut",
    "get_or_init",
    "hash",
    "insert",
    "into_iter",
    "is_empty",
    "is_none",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "load",
    "lock",
    "map",
    "map_err",
    "max",
    "min",
    "ne",
    "next",
    "ok",
    "or_else",
    "or_insert",
    "or_insert_with",
    "parse",
    "partial_cmp",
    "pop",
    "position",
    "push",
    "push_str",
    "read",
    "recv",
    "recv_timeout",
    "remove",
    "replace",
    "retain",
    "rev",
    "send",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "splice",
    "split",
    "split_off",
    "starts_with",
    "ends_with",
    "store",
    "sum",
    "swap",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "try_recv",
    "try_send",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "windows",
    "with_capacity",
    "write",
    "zip",
];

/// A function's identity inside the table.
#[derive(Debug)]
pub struct FnDef {
    /// Workspace-relative file.
    pub file: String,
    /// The parsed item (name, owner, calls, ...).
    pub item: FnItem,
}

/// The whole-workspace function index.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// All fns, in (sorted-file, source) order — indexes are stable and
    /// used as call-graph node ids.
    pub fns: Vec<FnDef>,
    /// bare name -> ids of fns declared in an impl or trait block.
    methods: HashMap<String, Vec<usize>>,
    /// bare name -> ids of free fns.
    free_fns: HashMap<String, Vec<usize>>,
    /// `Owner::name` and `Trait::name` -> fn ids.
    by_qual: HashMap<String, Vec<usize>>,
}

impl SymbolTable {
    /// Build from parsed files (consumed; file order is preserved, so
    /// pass them sorted for deterministic node ids).
    pub fn build(files: Vec<ParsedFile>) -> SymbolTable {
        let mut table = SymbolTable::default();
        for file in files {
            for item in file.fns {
                let id = table.fns.len();
                let by_name = match item.owner {
                    Some(_) => &mut table.methods,
                    None => &mut table.free_fns,
                };
                by_name.entry(item.name.clone()).or_default().push(id);
                if let Some(owner) = &item.owner {
                    table
                        .by_qual
                        .entry(format!("{owner}::{}", item.name))
                        .or_default()
                        .push(id);
                }
                if let Some(trait_name) = &item.trait_name {
                    table
                        .by_qual
                        .entry(format!("{trait_name}::{}", item.name))
                        .or_default()
                        .push(id);
                }
                table.fns.push(FnDef {
                    file: file.path.clone(),
                    item,
                });
            }
        }
        table
    }

    /// Resolve a call to candidate fn ids. `caller_owner` resolves
    /// `Self::..` qualifiers.
    pub fn resolve(
        &self,
        callee: &str,
        qualifier: Option<&str>,
        is_method: bool,
        is_macro: bool,
        caller_owner: Option<&str>,
    ) -> &[usize] {
        if is_macro {
            return &[];
        }
        if let Some(q) = qualifier {
            let owner = if q == "Self" {
                match caller_owner {
                    Some(o) => o,
                    None => return &[],
                }
            } else {
                q
            };
            return self
                .by_qual
                .get(&format!("{owner}::{callee}"))
                .map(|v| v.as_slice())
                .unwrap_or(&[]);
        }
        let by_name = if is_method {
            if AMBIENT_METHODS.contains(&callee) {
                return &[];
            }
            &self.methods
        } else {
            &self.free_fns
        };
        by_name.get(callee).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Fn ids matching an entry-point spec.
    pub fn matching(
        &self,
        name: &str,
        owner: Option<&str>,
        trait_name: Option<&str>,
    ) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.item.name == name
                    && owner.is_none_or(|o| f.item.owner.as_deref() == Some(o))
                    && trait_name.is_none_or(|t| f.item.trait_name.as_deref() == Some(t))
            })
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn table(files: &[(&str, &str)]) -> SymbolTable {
        SymbolTable::build(
            files
                .iter()
                .map(|(path, src)| parse_file(path, src))
                .collect(),
        )
    }

    #[test]
    fn qualified_and_method_resolution() {
        let t = table(&[
            (
                "a.rs",
                r#"
                impl Network { pub fn transmit(&self) {} }
                impl Engine { pub fn scan_page(&self) {} fn helper(&self) {} }
                pub fn helper() {}
                pub fn scan_page() {}
                "#,
            ),
            ("b.rs", "pub fn helper() {}"),
        ]);
        // Qual::name
        let ids = t.resolve("transmit", Some("Network"), false, false, None);
        assert_eq!(ids.len(), 1);
        assert_eq!(t.fns[ids[0]].item.qual_name(), "Network::transmit");
        // method call resolves by bare name, to methods only
        let ids = t.resolve("scan_page", None, true, false, None);
        assert_eq!(ids.len(), 1);
        assert_eq!(t.fns[ids[0]].item.qual_name(), "Engine::scan_page");
        // ambient method names never resolve
        assert!(t.resolve("get", None, true, false, None).is_empty());
        // bare call: both free helpers, never the method
        let ids = t.resolve("helper", None, false, false, None);
        assert_eq!(ids.len(), 2);
        assert!(ids.iter().all(|&id| t.fns[id].item.owner.is_none()));
    }

    #[test]
    fn self_qualifier_uses_caller_owner() {
        let t = table(&[(
            "a.rs",
            r#"
            impl Pool { fn make() {} fn run(&self) { Self::make(); } }
            impl Other { fn make() {} }
            "#,
        )]);
        let ids = t.resolve("make", Some("Self"), false, false, Some("Pool"));
        assert_eq!(ids.len(), 1);
        assert_eq!(t.fns[ids[0]].item.qual_name(), "Pool::make");
        assert!(t
            .resolve("make", Some("Self"), false, false, None)
            .is_empty());
    }

    #[test]
    fn entry_matching_by_trait() {
        let t = table(&[(
            "a.rs",
            r#"
            impl Operator for ScanOp { fn next_batch(&mut self) { pull(); } }
            impl ScanOp { fn next_batch_helper(&self) {} }
            impl Cursor { fn next_batch(&mut self) {} }
            "#,
        )]);
        let entries = t.matching("next_batch", None, Some("Operator"));
        assert_eq!(entries.len(), 1);
        assert_eq!(t.fns[entries[0]].item.owner.as_deref(), Some("ScanOp"));
    }
}
