//! Workload generation: id spaces, Zipf popularity, word pools, and the
//! one request sampler every replay of an application's stream draws from.

use crate::defs::{AppDef, Op, ParamSpec, RequestType, TemplateDef};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scs_sqlkit::{Query, QueryTemplate, Update, UpdateTemplate, Value};
use std::collections::HashMap;

/// A Zipf sampler over ranks `1..=n` with exponent `s`:
/// `P(rank = r) ∝ r^-s`.
///
/// The paper re-popularized TPC-W with the Brynjolfsson et al. measurement
/// of amazon.com sales, `log Q = 10.526 − 0.871 log R` — i.e. a Zipf
/// exponent of `0.871` over book sales ranks.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

/// The Brynjolfsson et al. exponent used for the bookstore (§5.1).
pub const BOOK_POPULARITY_EXPONENT: f64 = 0.871;

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "Zipf needs a non-empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += (r as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Samples a rank in `1..=n`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("no NaN"))
        {
            Ok(i) | Err(i) => (i + 1).min(self.cdf.len()),
        }
    }
}

/// Mutable id-space state per table: how many ids were populated, and the
/// next fresh id for inserts.
#[derive(Debug, Clone, Default)]
pub struct IdSpaces {
    tables: HashMap<&'static str, IdSpace>,
}

#[derive(Debug, Clone)]
struct IdSpace {
    initial: i64,
    next_fresh: i64,
}

impl IdSpaces {
    /// Declares a table populated with ids `1..=count`.
    pub fn declare(&mut self, table: &'static str, count: i64) {
        self.tables.insert(
            table,
            IdSpace {
                initial: count,
                next_fresh: count + 1,
            },
        );
    }

    /// Number of initially populated rows.
    pub fn initial(&self, table: &str) -> i64 {
        self.tables.get(table).map_or(0, |s| s.initial)
    }

    /// Current high-water id (initial + inserts so far).
    pub fn high_water(&self, table: &str) -> i64 {
        self.tables.get(table).map_or(0, |s| s.next_fresh - 1)
    }

    fn fresh(&mut self, table: &str) -> i64 {
        let s = self
            .tables
            .get_mut(table)
            .unwrap_or_else(|| panic!("undeclared id space `{table}`"));
        let id = s.next_fresh;
        s.next_fresh += 1;
        id
    }
}

/// Parameter generator: binds [`ParamSpec`]s to concrete values.
pub struct ParamGen {
    pub ids: IdSpaces,
    zipf: HashMap<&'static str, Zipf>,
}

impl ParamGen {
    pub fn new(ids: IdSpaces, zipf_exponent: f64) -> ParamGen {
        let zipf = ids
            .tables
            .iter()
            .map(|(t, s)| (*t, Zipf::new(s.initial.max(1) as usize, zipf_exponent)))
            .collect();
        ParamGen { ids, zipf }
    }

    /// Generates one value for `spec`.
    pub fn bind(&mut self, spec: &ParamSpec, rng: &mut StdRng) -> Value {
        match spec {
            ParamSpec::ExistingId(table) => {
                let hi = self.ids.high_water(table).max(1);
                Value::Int(rng.gen_range(1..=hi))
            }
            ParamSpec::PopularId(table) => {
                let z = self
                    .zipf
                    .get(table)
                    .unwrap_or_else(|| panic!("undeclared id space `{table}`"));
                Value::Int(z.sample(rng) as i64)
            }
            ParamSpec::FreshId(table) => Value::Int(self.ids.fresh(table)),
            ParamSpec::Int(lo, hi) => Value::Int(rng.gen_range(*lo..=*hi)),
            ParamSpec::Word(pool) => Value::str(pool[rng.gen_range(0..pool.len())]),
            ParamSpec::Text(len) => {
                let chars = b"abcdefghijklmnopqrstuvwxyz ";
                let s: String = (0..*len)
                    .map(|_| chars[rng.gen_range(0..chars.len())] as char)
                    .collect();
                Value::Str(s)
            }
            ParamSpec::Keyed { table, pattern } => {
                let z = self
                    .zipf
                    .get(table)
                    .unwrap_or_else(|| panic!("undeclared id space `{table}`"));
                let id = z.sample(rng);
                Value::Str(pattern.replacen("{}", &id.to_string(), 1))
            }
        }
    }

    /// Binds a whole parameter list.
    pub fn bind_all(&mut self, specs: &[ParamSpec], rng: &mut StdRng) -> Vec<Value> {
        specs.iter().map(|s| self.bind(s, rng)).collect()
    }
}

/// One operation of a drawn request, bound to its parameters.
#[derive(Debug, Clone)]
pub enum BoundOp {
    Query(Query),
    Update(Update),
}

/// An application's request stream: each draw picks a request type by
/// weight (one `gen_range(0..total_weight)`), then binds its operations
/// in order from the same RNG. The simulator, the scripted scenarios and
/// the stream replays in the tests all draw here, so one seed names one
/// statement sequence everywhere.
pub struct RequestSampler {
    queries: Vec<TemplateDef<QueryTemplate>>,
    updates: Vec<TemplateDef<UpdateTemplate>>,
    requests: Vec<RequestType>,
    total_weight: u32,
    gen: ParamGen,
    rng: StdRng,
}

impl RequestSampler {
    pub fn new(app: &AppDef, gen: ParamGen, seed: u64) -> RequestSampler {
        RequestSampler {
            queries: app.queries.clone(),
            updates: app.updates.clone(),
            requests: app.requests.clone(),
            total_weight: app.requests.iter().map(|r| r.weight).sum(),
            gen,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws one request and binds its operations.
    pub fn draw(&mut self) -> Vec<BoundOp> {
        let mut pick = self.rng.gen_range(0..self.total_weight);
        let request = self
            .requests
            .iter()
            .find(|r| match pick.checked_sub(r.weight) {
                Some(rest) => {
                    pick = rest;
                    false
                }
                None => true,
            })
            .expect("weights sum to the total");
        request
            .ops
            .iter()
            .map(|op| match *op {
                Op::Query(tid) => {
                    let t = &self.queries[tid];
                    let params = self.gen.bind_all(&t.params, &mut self.rng);
                    BoundOp::Query(
                        Query::bind(tid, t.template.clone(), params)
                            .expect("validated definitions"),
                    )
                }
                Op::Update(tid) => {
                    let t = &self.updates[tid];
                    let params = self.gen.bind_all(&t.params, &mut self.rng);
                    BoundOp::Update(
                        Update::bind(tid, t.template.clone(), params)
                            .expect("validated definitions"),
                    )
                }
            })
            .collect()
    }
}

/// Common word pools for the benchmark applications.
pub mod words {
    /// TPC-W book subjects.
    pub const SUBJECTS: &[&str] = &[
        "arts",
        "biographies",
        "business",
        "children",
        "computers",
        "cooking",
        "health",
        "history",
        "home",
        "humor",
        "literature",
        "mystery",
        "non-fiction",
        "parenting",
        "politics",
        "reference",
        "religion",
        "romance",
        "self-help",
        "science-nature",
        "science-fiction",
        "sports",
        "youth",
        "travel",
    ];

    /// Person surnames (authors, users).
    pub const SURNAMES: &[&str] = &[
        "smith", "johnson", "lee", "garcia", "miller", "davis", "lopez", "wilson", "anderson",
        "thomas", "taylor", "moore", "martin", "jackson", "white", "harris",
    ];

    /// Given names.
    pub const GIVEN_NAMES: &[&str] = &[
        "ada", "alan", "grace", "edsger", "barbara", "donald", "john", "leslie", "tony", "robin",
        "ken", "dennis", "niklaus", "frances", "jean", "kathleen",
    ];

    /// Auction / bboard categories.
    pub const CATEGORIES: &[&str] = &[
        "antiques",
        "books",
        "electronics",
        "collectibles",
        "music",
        "photo",
        "sports",
        "toys",
        "travel",
        "jewelry",
    ];

    /// Regions for the auction site.
    pub const REGIONS: &[&str] = &[
        "east", "west", "north", "south", "central", "mountain", "pacific", "atlantic",
    ];

    /// Order / transaction status values.
    pub const STATUSES: &[&str] = &["pending", "processing", "shipped", "denied"];
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zipf_is_skewed() {
        let z = Zipf::new(1000, BOOK_POPULARITY_EXPONENT);
        let mut rng = StdRng::seed_from_u64(7);
        let mut head = 0usize;
        let n = 20_000;
        for _ in 0..n {
            if z.sample(&mut rng) <= 10 {
                head += 1;
            }
        }
        // Top-1% of ranks should draw far more than 1% of samples.
        let frac = head as f64 / n as f64;
        assert!(frac > 0.10, "top-10 ranks drew only {frac:.3} of samples");
    }

    #[test]
    fn zipf_samples_in_range() {
        let z = Zipf::new(5, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let r = z.sample(&mut rng);
            assert!((1..=5).contains(&r));
        }
    }

    #[test]
    fn fresh_ids_are_monotone_and_disjoint_from_initial() {
        let mut ids = IdSpaces::default();
        ids.declare("t", 100);
        let mut g = ParamGen::new(ids, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let a = g.bind(&ParamSpec::FreshId("t"), &mut rng);
        let b = g.bind(&ParamSpec::FreshId("t"), &mut rng);
        assert_eq!(a, Value::Int(101));
        assert_eq!(b, Value::Int(102));
        assert_eq!(g.ids.high_water("t"), 102);
    }

    #[test]
    fn existing_ids_cover_inserts() {
        let mut ids = IdSpaces::default();
        ids.declare("t", 3);
        let mut g = ParamGen::new(ids, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        g.bind(&ParamSpec::FreshId("t"), &mut rng);
        for _ in 0..100 {
            match g.bind(&ParamSpec::ExistingId("t"), &mut rng) {
                Value::Int(v) => assert!((1..=4).contains(&v)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn word_and_text_generation() {
        let mut g = ParamGen::new(IdSpaces::default(), 1.0);
        let mut rng = StdRng::seed_from_u64(4);
        let w = g.bind(&ParamSpec::Word(&["x", "y"]), &mut rng);
        assert!(matches!(&w, Value::Str(s) if s == "x" || s == "y"));
        let t = g.bind(&ParamSpec::Text(16), &mut rng);
        assert!(matches!(&t, Value::Str(s) if s.len() == 16));
    }
}
