//! Fixture: the public entry point for the L9 reachability chain. The
//! panic site itself lives two hops away in the docmodel crate (outside
//! the unwrap-denying crates, so only the interprocedural lint sees it).

pub struct Impliance {
    version: u32,
}

impl Impliance {
    pub fn query(&self, raw: &str) -> u32 {
        shred_document(raw, self.version)
    }
}

pub fn shred_document(raw: &str, version: u32) -> u32 {
    decode_header(raw) + version
}

fn decode_header(raw: &str) -> u32 {
    raw.len() as u32
}
