//! 128-bit service identifiers (Jini `ServiceID`).

use std::fmt;
use std::str::FromStr;

/// A 128-bit identifier assigned by the registrar (or proposed by the
/// service when re-registering after a restart).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceId {
    pub hi: u64,
    pub lo: u64,
}

impl ServiceId {
    pub const fn new(hi: u64, lo: u64) -> Self {
        ServiceId { hi, lo }
    }

    /// Generate from any RNG (the registrar owns the RNG choice).
    pub fn random(rng: &mut impl rand::Rng) -> Self {
        ServiceId {
            hi: rng.gen(),
            lo: rng.gen(),
        }
    }
}

impl fmt::Display for ServiceId {
    /// UUID-style rendering, grouped 8-4-4-4-12.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = ((self.hi as u128) << 64) | self.lo as u128;
        let s = format!("{b:032x}");
        write!(
            f,
            "{}-{}-{}-{}-{}",
            &s[0..8],
            &s[8..12],
            &s[12..16],
            &s[16..20],
            &s[20..32]
        )
    }
}

impl fmt::Debug for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ServiceId({self})")
    }
}

impl FromStr for ServiceId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let hex: String = s.chars().filter(|c| *c != '-').collect();
        if hex.len() != 32 {
            return Err(format!("expected 32 hex digits, got {}", hex.len()));
        }
        let v = u128::from_str_radix(&hex, 16).map_err(|e| e.to_string())?;
        Ok(ServiceId {
            hi: (v >> 64) as u64,
            lo: v as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn display_parse_roundtrip() {
        let id = ServiceId::new(0x0123456789abcdef, 0xfedcba9876543210);
        let s = id.to_string();
        assert_eq!(s, "01234567-89ab-cdef-fedc-ba9876543210");
        assert_eq!(s.parse::<ServiceId>().unwrap(), id);
    }

    #[test]
    fn random_ids_differ() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = ServiceId::random(&mut rng);
        let b = ServiceId::random(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("xyz".parse::<ServiceId>().is_err());
        assert!("0123".parse::<ServiceId>().is_err());
    }
}
