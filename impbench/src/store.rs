//! Loading a generated stream into a freshly booted appliance.
//!
//! One loader serves both uses: the shared store the query workloads run
//! on (its build time is `setup_s`) and phase A of `bulk_ingest` (where
//! the same loop is the measured section). Documents go in through the
//! public ingest entry points in waves; after each wave the change feed is
//! drained into the text index, and at the end every memtable is sealed.
//! The appliance is the no-knobs box: `ApplianceConfig::default()`.

use std::time::Instant;

use impliance_core::{ApplianceConfig, Impliance};
use impliance_docmodel::DocId;

use crate::gen::{customer_schema, Doc, Generator, Kind};
use crate::stats::Samples;
use crate::trace::Tracer;

/// Documents per wave; the text index is brought up to date after each.
pub const WAVE: usize = 1_000;

/// What loading a stream cost, measured at the appliance's public surface.
#[derive(Debug, Default)]
pub struct LoadStats {
    /// First ingest call to the end of `seal_all`.
    pub wall_s: f64,
    /// Acknowledgement latency of each ingest call, in µs.
    pub ack_us: Samples,
    /// Per wave: last acknowledgement of the wave to the moment the text
    /// index covers its last commit (`index_epoch` ≥ that commit), in ms.
    pub searchable_lag_ms: Samples,
    /// Per wave: `(records drained, run_indexing wall ms)`.
    pub index_waves: Vec<(usize, f64)>,
    pub stored_bytes: u64,
    pub user_bytes: u64,
    /// Ingest calls that returned an error.
    pub failed: u64,
}

/// A loaded appliance together with the inputs that went into it, so that
/// answers can be checked against values computed from the inputs.
pub struct Store {
    pub imp: Impliance,
    pub docs: Vec<Doc>,
    /// `ids[i]` is the id the appliance gave `docs[i]` (`None` = refused).
    pub ids: Vec<Option<DocId>>,
    /// The generator after the stream was drawn: later documents (the
    /// `mixed_ops` writer) continue its sequences.
    pub generator: Generator,
    pub load: LoadStats,
}

/// Draw the stream for `counts` from `seed`.
pub fn generate(seed: u64, counts: [usize; 5]) -> (Generator, Vec<Doc>) {
    let mut g = Generator::new(seed, counts[Kind::Customer as usize] as u32);
    let docs = g.stream(counts);
    (g, docs)
}

/// Boot a default appliance and load `docs` into it.
pub fn load(generator: Generator, docs: Vec<Doc>, tracer: &mut Tracer) -> Store {
    let imp = Impliance::boot(ApplianceConfig::default());
    let schema = customer_schema();
    let mut load = LoadStats::default();
    let mut ids = Vec::with_capacity(docs.len());
    let started = Instant::now();
    for wave in docs.chunks(WAVE) {
        for doc in wave {
            let span = doc.kind().ingest_span();
            let (res, ns) = tracer.time(span, |_| doc.ingest(&imp, &schema));
            load.ack_us.push(ns as f64 / 1e3);
            load.user_bytes += doc.user_bytes() as u64;
            load.failed += u64::from(res.is_err());
            ids.push(res.ok());
        }
        let last_ack = Instant::now();
        let wave_epoch = imp.storage().current_epoch();
        let (drained, ns) = tracer.time("core.run_indexing", |_| imp.run_indexing(None));
        load.index_waves.push((drained, ns as f64 / 1e6));
        if imp.index_epoch() >= wave_epoch {
            load.searchable_lag_ms
                .push(last_ack.elapsed().as_secs_f64() * 1e3);
        } else {
            load.failed += 1; // a drained feed that is not searchable
        }
    }
    tracer.time("storage.seal_all", |_| imp.storage().seal_all());
    load.wall_s = started.elapsed().as_secs_f64();
    load.stored_bytes = imp.storage().stored_bytes() as u64;
    Store {
        imp,
        docs,
        ids,
        generator,
        load,
    }
}

impl Store {
    /// Inputs of one kind with the id each was stored under.
    pub fn of_kind(&self, kind: Kind) -> impl Iterator<Item = (&Doc, DocId)> {
        self.docs
            .iter()
            .zip(&self.ids)
            .filter(move |(d, _)| d.kind() == kind)
            .filter_map(|(d, id)| id.map(|id| (d, id)))
    }

    pub fn count(&self, kind: Kind) -> usize {
        self.of_kind(kind).count()
    }
}
