//! The benchmark's input generator: a splitmix64 stream per (workload
//! seed, purpose), so one `--seed` pins every generated input.

/// A deterministic stream of draws derived from a workload seed.
#[derive(Debug, Clone)]
pub struct Stream {
    state: u64,
}

impl Stream {
    /// A stream for `seed`, separated from other purposes by `salt`.
    #[must_use]
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut stream = Stream {
            state: seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        // Warm the stream so neighbouring seeds diverge at once.
        let _ = stream.draw();
        stream
    }

    /// The next 64-bit draw.
    pub fn draw(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty draw range {lo}..{hi}");
        lo + self.draw() % (hi - lo)
    }
}
