//! The seeded operation generator and its shadow model.
//!
//! The generator is the only consumer of `--seed`: the program under test
//! receives the generated operations and nothing else. Every write carries
//! the next version of its key, and the generator remembers the last
//! version it issued per key, so each lookup comes with the exact value
//! the service must answer.

/// xoshiro256** seeded through splitmix64: small, fast, and entirely
/// under the benchmark's control so a seed means the same sequence on
/// every toolchain.
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these sizes is far
    /// below anything the workloads can resolve).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * n as u64) >> 32) as u32
    }
}

/// One generated operation. `version` is what the shadow model says the
/// key holds (for a read) or will hold once acknowledged (for a write).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Read {
        key: u32,
        version: u32,
    },
    Write {
        key: u32,
        version: u32,
    },
    /// List one context; the model knows how many names it holds.
    List {
        ctx: u32,
    },
    /// An atomic bind + unbind pair on the co-mounted registrar.
    Jini {
        slot: u32,
    },
}

/// Operation mix in percent; the four shares add up to 100.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub read: u32,
    pub write: u32,
    pub list: u32,
    pub jini: u32,
}

/// Shape of a workload's namespace.
#[derive(Clone, Copy, Debug)]
pub struct Space {
    pub keys: u32,
    pub contexts: u32,
    pub jini_slots: u32,
}

pub struct Generator {
    rng: Rng,
    mix: Mix,
    space: Space,
    /// Last version issued per key: the shadow of the service's state.
    versions: Vec<u32>,
}

impl Generator {
    pub fn new(seed: u64, mix: Mix, space: Space) -> Generator {
        assert_eq!(mix.read + mix.write + mix.list + mix.jini, 100);
        Generator {
            rng: Rng::new(seed),
            mix,
            space,
            versions: vec![0; space.keys as usize],
        }
    }

    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.below(100);
        if roll < self.mix.read {
            let key = self.rng.below(self.space.keys);
            Op::Read {
                key,
                version: self.versions[key as usize],
            }
        } else if roll < self.mix.read + self.mix.write {
            let key = self.rng.below(self.space.keys);
            let version = &mut self.versions[key as usize];
            *version += 1;
            Op::Write {
                key,
                version: *version,
            }
        } else if roll < self.mix.read + self.mix.write + self.mix.list {
            Op::List {
                ctx: self.rng.below(self.space.contexts),
            }
        } else {
            Op::Jini {
                slot: self.rng.below(self.space.jini_slots),
            }
        }
    }

    /// The version the model holds for `key` right now.
    pub fn version(&self, key: u32) -> u32 {
        self.versions[key as usize]
    }

    pub fn space(&self) -> Space {
        self.space
    }
}

/// The 64-byte value version `version` of `key` carries. ASCII, so every
/// backend (LDAP stores strings) can hold it.
pub fn value_of(key: u32, version: u32) -> String {
    let mut v = format!("k{key:08x}v{version:08x}:");
    let mut x = (key as u64) << 32 | version as u64;
    while v.len() < 64 {
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(1);
        v.push((b'a' + (x >> 59) as u8 % 26) as char);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        read: 60,
        write: 25,
        list: 10,
        jini: 5,
    };
    const SPACE: Space = Space {
        keys: 20_000,
        contexts: 200,
        jini_slots: 16,
    };

    fn sequence(seed: u64, n: usize) -> Vec<Op> {
        let mut g = Generator::new(seed, MIX, SPACE);
        (0..n).map(|_| g.next_op()).collect()
    }

    #[test]
    fn same_seed_same_sequence() {
        assert_eq!(sequence(7, 10_000), sequence(7, 10_000));
    }

    #[test]
    fn different_seed_different_sequence() {
        assert_ne!(sequence(7, 1_000), sequence(8, 1_000));
    }

    #[test]
    fn mix_ratios_within_one_percent() {
        let n = 100_000;
        let mut counts = [0usize; 4];
        for op in sequence(42, n) {
            counts[match op {
                Op::Read { .. } => 0,
                Op::Write { .. } => 1,
                Op::List { .. } => 2,
                Op::Jini { .. } => 3,
            }] += 1;
        }
        for (count, nominal) in counts.iter().zip([MIX.read, MIX.write, MIX.list, MIX.jini]) {
            let share = *count as f64 / n as f64;
            assert!(
                (share - nominal as f64 / 100.0).abs() < 0.01,
                "share {share} vs nominal {nominal}%"
            );
        }
    }

    #[test]
    fn reads_expect_the_last_written_version() {
        let mut g = Generator::new(3, MIX, SPACE);
        let mut model = std::collections::HashMap::new();
        for _ in 0..50_000 {
            match g.next_op() {
                Op::Write { key, version } => {
                    assert_eq!(version, model.get(&key).copied().unwrap_or(0) + 1);
                    model.insert(key, version);
                }
                Op::Read { key, version } => {
                    assert_eq!(version, model.get(&key).copied().unwrap_or(0));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn values_are_64_ascii_bytes_and_distinct() {
        let a = value_of(1, 0);
        assert_eq!(a.len(), 64);
        assert!(a.is_ascii());
        assert_ne!(a, value_of(1, 1));
        assert_ne!(a, value_of(2, 0));
    }
}
