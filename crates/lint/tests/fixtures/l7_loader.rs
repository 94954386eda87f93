//! Fixture: panicking shortcuts in the graph loader's byte parser (L7).

pub fn word(bytes: &[u8]) -> u64 {
    // Violation: a short line must be a parse error, not a panic.
    u64::from_le_bytes(bytes[..8].try_into().unwrap())
}

pub fn field(tok: &[u8]) -> f64 {
    // Violation: a bad token in a LOAD file is the client's fault.
    std::str::from_utf8(tok).expect("ASCII").parse().unwrap_or(0.0)
}

pub fn graceful(tok: &[u8]) -> Option<f64> {
    // Allowed: the fallible forms.
    std::str::from_utf8(tok).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        // Allowed: test code asserts freely.
        assert_eq!(super::graceful(b"0.5").unwrap(), 0.5);
    }
}
