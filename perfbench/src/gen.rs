//! Workload generators. Every request is a pure function of the
//! workload seed and its index, so runs with one seed send the same
//! bytes however the two clients interleave. The servers see only the
//! generated request lines.

use std::collections::BTreeSet;

use oa_circuit::{ParamSpace, Topology, DESIGN_SPACE_SIZE};
use oa_router::{HashRing, DEFAULT_VNODES};
use oa_serve::request;

use crate::stats::{mix, Rng};

/// The five specification sets of Table I, by wire name.
pub const SPECS: [&str; 5] = ["S-1", "S-2", "S-3", "S-4", "S-5"];
/// Shards in the measured fabric.
pub const SHARDS: u32 = 2;
/// Topologies one seed draws its keys from ("a few hundred").
pub const TOPOLOGY_POOL: usize = 320;
/// Items per `eval_batch` request.
pub const BATCH_ITEMS: usize = 16;
/// Prefilled keys per spec for `batch_warm`.
pub const PREFILL_PER_SPEC: usize = 512;
/// Steps per `bo_session` session.
pub const SESSION_STEPS: u64 = 16;
/// Topology-BO random initial draws per session (serving default).
pub const SESSION_N_INIT: usize = 4;
/// Topology-BO candidate pool per step (serving default).
pub const SESSION_POOL: usize = 64;
/// Sizing-BO budget per step: the paper's 10 initial + 30 iterations,
/// which is also the `size_opt` serving default.
pub const SIZE_INIT: usize = 10;
pub const SIZE_ITER: usize = 30;

/// Prime modulus of the index permutation that makes `eval_cold` keys
/// distinct by construction (first sizing coordinate).
const KEY_SPACE: u64 = 1_000_003;

/// One evaluation key: spec, topology code, normalized sizing vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Key {
    pub spec: &'static str,
    pub topology: usize,
    pub x: Vec<f64>,
}

impl Key {
    pub fn eval_line(&self, id: u64) -> String {
        request::eval(id, self.spec, self.topology, &self.x)
    }
}

/// `seed`'s pool of distinct topology codes with their sizing dimension.
fn topology_pool(seed: u64) -> Vec<(usize, usize)> {
    let mut rng = Rng::new(seed ^ 0x746f_706f);
    let mut chosen = BTreeSet::new();
    let mut pool = Vec::with_capacity(TOPOLOGY_POOL);
    while pool.len() < TOPOLOGY_POOL {
        let code = rng.below(DESIGN_SPACE_SIZE as u64) as usize;
        if chosen.insert(code) {
            let topology = Topology::from_index(code).expect("code below DESIGN_SPACE_SIZE");
            pool.push((code, ParamSpace::for_topology(&topology).dim()));
        }
    }
    pool
}

/// A sizing coordinate on a 1/1024 grid strictly inside the unit cube.
fn grid_coordinate(rng: &mut Rng) -> f64 {
    (1 + rng.below(1023)) as f64 / 1024.0
}

/// `eval_cold`: single `eval` requests whose keys are all distinct, so
/// every one misses the store.
#[derive(Debug, Clone)]
pub struct EvalCold {
    seed: u64,
    pool: Vec<(usize, usize)>,
    stride: u64,
    offset: u64,
}

impl EvalCold {
    pub fn new(seed: u64) -> EvalCold {
        EvalCold {
            seed,
            pool: topology_pool(seed),
            stride: 1 + mix(seed ^ 0x7374_7269) % (KEY_SPACE - 1),
            offset: mix(seed ^ 0x6f66_6673) % KEY_SPACE,
        }
    }

    /// Number of distinct keys the generator can produce.
    pub fn capacity(&self) -> u64 {
        KEY_SPACE
    }

    /// Key `i` (`i < capacity()`). The first coordinate is an affine
    /// permutation of `i` modulo a prime, so distinct indices give
    /// distinct keys.
    pub fn key(&self, i: u64) -> Key {
        let j = ((u128::from(self.stride) * u128::from(i) + u128::from(self.offset))
            % u128::from(KEY_SPACE)) as u64;
        let mut rng = Rng::new(mix(self.seed ^ 0x636f_6c64) ^ i);
        let spec = SPECS[rng.below(SPECS.len() as u64) as usize];
        let (topology, dim) = self.pool[rng.below(self.pool.len() as u64) as usize];
        let mut x = Vec::with_capacity(dim);
        x.push((j + 1) as f64 / (KEY_SPACE + 1) as f64);
        while x.len() < dim {
            x.push(grid_coordinate(&mut rng));
        }
        Key { spec, topology, x }
    }

    /// Request line `i`; its id is its index.
    pub fn line(&self, i: u64) -> String {
        self.key(i).eval_line(i)
    }
}

/// `batch_warm`: a prefilled key set per spec, then `eval_batch`
/// requests of [`BATCH_ITEMS`] prefilled keys that span both shards.
#[derive(Debug, Clone)]
pub struct BatchWarm {
    seed: u64,
    keys: Vec<Vec<Key>>,
    owner: Vec<Vec<u32>>,
}

impl BatchWarm {
    pub fn new(seed: u64) -> BatchWarm {
        let pool = topology_pool(seed);
        let ring = HashRing::new(SHARDS, DEFAULT_VNODES);
        let mut rng = Rng::new(seed ^ 0x7761_726d);
        let mut keys = Vec::with_capacity(SPECS.len());
        let mut owner = Vec::with_capacity(SPECS.len());
        for spec in SPECS {
            let mut seen = BTreeSet::new();
            let mut spec_keys = Vec::with_capacity(PREFILL_PER_SPEC);
            while spec_keys.len() < PREFILL_PER_SPEC {
                let (topology, dim) = pool[rng.below(pool.len() as u64) as usize];
                let x: Vec<f64> = (0..dim).map(|_| grid_coordinate(&mut rng)).collect();
                let bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                if seen.insert((topology, bits)) {
                    spec_keys.push(Key { spec, topology, x });
                }
            }
            owner.push(
                spec_keys
                    .iter()
                    .map(|k| ring.route(k.topology as u64).expect("non-empty ring"))
                    .collect(),
            );
            keys.push(spec_keys);
        }
        BatchWarm { seed, keys, owner }
    }

    /// Every prefilled key, spec by spec.
    pub fn prefill_keys(&self) -> impl Iterator<Item = &Key> {
        self.keys.iter().flatten()
    }

    /// The untimed prefill: every key once, as `eval_batch` lines.
    pub fn prefill_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (s, spec_keys) in self.keys.iter().enumerate() {
            for chunk in spec_keys.chunks(BATCH_ITEMS) {
                let items: Vec<(usize, Vec<f64>)> =
                    chunk.iter().map(|k| (k.topology, k.x.clone())).collect();
                lines.push(request::eval_batch(lines.len() as u64, SPECS[s], &items));
            }
        }
        lines
    }

    /// The keys of batch `i`: one spec, [`BATCH_ITEMS`] distinct
    /// prefilled keys, owned by both shards.
    pub fn batch(&self, i: u64) -> (&'static str, Vec<&Key>) {
        let mut rng = Rng::new(mix(self.seed ^ 0x6261_7463) ^ i);
        let s = rng.below(SPECS.len() as u64) as usize;
        let mut picked: Vec<usize> = Vec::with_capacity(BATCH_ITEMS);
        while picked.len() < BATCH_ITEMS {
            let k = rng.below(PREFILL_PER_SPEC as u64) as usize;
            if !picked.contains(&k) {
                picked.push(k);
            }
        }
        let first_owner = self.owner[s][picked[0]];
        if picked.iter().all(|&k| self.owner[s][k] == first_owner) {
            // Swap the last item for the next key owned by the other shard.
            let other = (0..PREFILL_PER_SPEC)
                .map(|d| (picked[BATCH_ITEMS - 1] + d) % PREFILL_PER_SPEC)
                .find(|&k| self.owner[s][k] != first_owner)
                .expect("a seed's keys span both shards");
            picked[BATCH_ITEMS - 1] = other;
        }
        (
            SPECS[s],
            picked.into_iter().map(|k| &self.keys[s][k]).collect(),
        )
    }

    /// Request line `i`; its id is its index.
    pub fn line(&self, i: u64) -> String {
        let (spec, keys) = self.batch(i);
        let items: Vec<(usize, Vec<f64>)> =
            keys.iter().map(|k| (k.topology, k.x.clone())).collect();
        request::eval_batch(i, spec, &items)
    }
}

/// One `bo_session` session: id, target spec and BO seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Session {
    pub id: u64,
    pub spec: &'static str,
    pub seed: u64,
}

/// `bo_session`: in round `e`, client `c` runs its session `e` whole,
/// [`SESSION_STEPS`] steps long, so every round does the same amount of
/// work however fast the host runs.
#[derive(Debug, Clone, Copy)]
pub struct BoSessions {
    seed: u64,
}

impl BoSessions {
    pub fn new(seed: u64) -> BoSessions {
        BoSessions { seed }
    }

    /// Session `e` of client `client` (`client < 2`). Ids interleave
    /// the two clients, so they never collide.
    pub fn session(&self, client: u64, e: u64) -> Session {
        let mut rng = Rng::new(mix(self.seed ^ 0x7365_7373) ^ (e << 1 | client));
        Session {
            id: 1 + (e << 1 | client),
            spec: SPECS[rng.below(SPECS.len() as u64) as usize],
            seed: rng.next_u64() >> 12,
        }
    }

    /// The session's `open_session` line with the serving budget above.
    /// The spec set is the target alone: a warm-start family would make
    /// a session's proposals depend on what the other client stored.
    pub fn open_line(&self, s: &Session, id: u64) -> String {
        request::open_session(
            id,
            s.id,
            &[s.spec],
            s.seed,
            SESSION_N_INIT,
            SESSION_POOL,
            SIZE_INIT,
            SIZE_ITER,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn eval_cold_is_deterministic_per_seed() {
        let (a, b, c) = (EvalCold::new(3), EvalCold::new(3), EvalCold::new(4));
        for i in [0u64, 1, 77, 123_456] {
            assert_eq!(a.line(i), b.line(i));
        }
        assert!((0..32).any(|i| a.line(i) != c.line(i)));
    }

    #[test]
    fn eval_cold_keys_are_distinct() {
        let g = EvalCold::new(11);
        let mut seen = HashSet::new();
        for i in 0..50_000u64 {
            let k = g.key(i);
            let bits: Vec<u64> = k.x.iter().map(|v| v.to_bits()).collect();
            assert!(seen.insert((k.spec, k.topology, bits)), "key {i} repeats");
            assert!(k.x.iter().all(|&v| v > 0.0 && v < 1.0));
        }
        let topologies: HashSet<usize> = (0..50_000).map(|i| g.key(i).topology).collect();
        assert!(topologies.len() > 200, "a few hundred topologies");
        let specs: HashSet<&str> = (0..1000).map(|i| g.key(i).spec).collect();
        assert_eq!(specs.len(), SPECS.len());
    }

    #[test]
    fn batch_warm_is_deterministic_and_spans_both_shards() {
        let (a, b) = (BatchWarm::new(5), BatchWarm::new(5));
        assert_eq!(a.prefill_lines(), b.prefill_lines());
        assert_eq!(a.prefill_keys().count(), SPECS.len() * PREFILL_PER_SPEC);
        let ring = HashRing::new(SHARDS, DEFAULT_VNODES);
        for i in 0..500u64 {
            assert_eq!(a.line(i), b.line(i));
            let (_, keys) = a.batch(i);
            assert_eq!(keys.len(), BATCH_ITEMS);
            let owners: HashSet<u32> = keys
                .iter()
                .map(|k| ring.route(k.topology as u64).unwrap())
                .collect();
            assert_eq!(owners.len(), 2, "batch {i} spans both shards");
        }
        assert_ne!(a.line(0), BatchWarm::new(6).line(0));
    }

    #[test]
    fn sessions_are_deterministic_and_distinct() {
        let (a, b) = (BoSessions::new(9), BoSessions::new(9));
        let mut ids = HashSet::new();
        for c in 0..2 {
            for e in 0..50 {
                let s = a.session(c, e);
                assert_eq!(s, b.session(c, e));
                assert_eq!(a.open_line(&s, 1), b.open_line(&s, 1));
                assert!(ids.insert(s.id));
            }
        }
        assert_ne!(a.session(0, 0).seed, BoSessions::new(10).session(0, 0).seed);
    }
}
