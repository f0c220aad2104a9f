//! Fixture: a panic site reachable from `Impliance::query` (L9). The
//! docmodel crate does not deny clippy::unwrap_used, so no per-file lint
//! sees this unwrap — only the call-graph walk does. The orphan
//! fn and the test module must stay silent.

pub fn decode_header(raw: &str) -> u32 {
    parse_magic(raw).unwrap()
}

fn parse_magic(raw: &str) -> Option<u32> {
    raw.bytes().next().map(u32::from)
}

pub fn orphan_helper(x: Option<u32>) -> u32 {
    x.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_in_tests_is_fine() {
        assert_eq!(parse_magic("a").unwrap(), 97);
    }
}
