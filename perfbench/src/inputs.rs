//! Seeded input generation.
//!
//! The benchmark draws every input from its own SplitMix64 stream, so
//! the inputs a seed names stay fixed even when the library's own
//! generators change; the library only ever receives the finished
//! requests, arrival steps and search seeds.
//!
//! The draws are stratified so that the *amount* of work barely moves
//! with the seed while its arrangement does: a mix has a fixed share of
//! long requests (their order is drawn), and arrivals are a
//! Poisson process conditioned on its count — that many uniform times
//! over a fixed window, sorted. A seed therefore changes which steps the
//! scheduler emits, not how long a run takes.

use lumen_components::DramKind;
use lumen_workload::serving::Request;

/// SplitMix64 (Steele, Lea & Flood 2014): tiny, fast, and exact on
/// every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; `stream` separates independent draws made
    /// from one seed (requests vs arrivals vs search seeds).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `lo..=hi` (multiply-shift; the bias is below
    /// 2^-32 for the small ranges drawn here).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        let span = (hi - lo) as u128 + 1;
        lo + ((u128::from(self.next_u64()) * span) >> 64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i));
        }
    }
}

/// A chat-style request: short prompt, short answer — the shape the
/// repository's serving studies use.
pub const CHAT: Request = Request {
    prompt: 64,
    output: 16,
};

/// A long-document request: long prompt, longer answer.
pub const LONG_DOC: Request = Request {
    prompt: 512,
    output: 48,
};

/// One served traffic stream: the requests in arrival order and the
/// scheduler step each arrives at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServingInputs {
    /// Requests, in arrival order.
    pub requests: Vec<Request>,
    /// Arrival step of each request, non-decreasing.
    pub arrivals: Vec<usize>,
}

impl ServingInputs {
    /// `count` requests, `long_percent`% of them [`LONG_DOC`] and the
    /// rest [`CHAT`] (exact shares, in seeded order), arriving as a Poisson
    /// process with `count` arrivals over `window` scheduler steps.
    pub fn bimodal_poisson(seed: u64, count: usize, long_percent: usize, window: usize) -> Self {
        let mut rng = Rng::new(seed, 1);
        let long = count * long_percent / 100;
        let mut requests: Vec<Request> = (0..count)
            .map(|i| if i < long { LONG_DOC } else { CHAT })
            .collect();
        rng.shuffle(&mut requests);
        let mut rng = Rng::new(seed, 2);
        let mut arrivals: Vec<usize> = (0..count).map(|_| rng.range(0, window - 1)).collect();
        arrivals.sort_unstable();
        ServingInputs { requests, arrivals }
    }

    /// Tokens the stream generates.
    pub fn total_output_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.output as u64).sum()
    }
}

/// Global-buffer sizes the design sweep visits, in MiB.
pub const GLB_MIB: [usize; 4] = [1, 2, 4, 8];
/// Input-reuse factors (IR) the design sweep visits.
pub const INPUT_REUSE: [usize; 8] = [1, 2, 3, 4, 6, 9, 12, 18];
/// DRAM technologies the design sweep visits.
pub const DRAM: [DramKind; 3] = [DramKind::Lpddr4, DramKind::Ddr4, DramKind::Hbm2];

/// One Albireo design point of the sweep, with its search seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignInput {
    /// Global-buffer size, MiB.
    pub glb_mib: usize,
    /// Input-reuse factor.
    pub input_reuse: usize,
    /// DRAM technology.
    pub dram: DramKind,
    /// Seed of the design's random mapping search.
    pub search_seed: u64,
}

impl DesignInput {
    /// The full grid (GLB × IR × DRAM), each point with its own search
    /// seed drawn from `seed`.
    pub fn grid(seed: u64) -> Vec<DesignInput> {
        let mut rng = Rng::new(seed, 3);
        let mut points = Vec::new();
        for &glb_mib in &GLB_MIB {
            for &input_reuse in &INPUT_REUSE {
                for &dram in &DRAM {
                    points.push(DesignInput {
                        glb_mib,
                        input_reuse,
                        dram,
                        search_seed: rng.next_u64(),
                    });
                }
            }
        }
        points
    }

    /// The design's label in sweep results.
    pub fn label(&self) -> String {
        format!("glb{}-ir{}-{:?}", self.glb_mib, self.input_reuse, self.dram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_shares_are_exact() {
        let a = ServingInputs::bimodal_poisson(7, 200, 25, 1000);
        assert_eq!(a, ServingInputs::bimodal_poisson(7, 200, 25, 1000));
        assert_ne!(a, ServingInputs::bimodal_poisson(8, 200, 25, 1000));
        let long = a.requests.iter().filter(|r| **r == LONG_DOC).count();
        assert_eq!(long, 50);
        assert!(a.arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.arrivals.iter().all(|&s| s < 1000));
    }

    #[test]
    fn grid_has_distinct_points_and_seeds() {
        let grid = DesignInput::grid(1);
        assert_eq!(grid.len(), GLB_MIB.len() * INPUT_REUSE.len() * DRAM.len());
        let mut seeds: Vec<u64> = grid.iter().map(|d| d.search_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), grid.len());
        assert_ne!(grid, DesignInput::grid(2));
    }
}
