//! The DSSP's cache of (possibly encrypted) query results.
//!
//! Deterministic encryption makes caching work at every exposure level
//! (footnote 3 of the paper). The lookup key depends on the query
//! template's exposure level:
//!
//! * `view` / `stmt` — the plaintext statement text;
//! * `template` — the template id plus the encrypted parameters;
//! * `blind` — the encrypted statement text.
//!
//! Every key form identifies the same logical entity (template id + bound
//! parameters), so the cache indexes entries by a canonical internal key
//! and additionally records the *wire form* for size accounting.
//!
//! What an invalidation strategy may *see* of an entry is gated by the
//! exposure level through [`CacheEntry::visible_statement`] and
//! [`CacheEntry::visible_result`] — encrypted fields are simply absent
//! from the strategy's view.
//!
//! The cache never stores **empty results**: §2.1.1 assumes no query
//! subject to insertion/deletion invalidation returns an empty result, and
//! the §4.5 primary-key refinement leans on it. Declining to cache empty
//! results enforces the assumption structurally.
//!
//! Entries live in a slot arena and every other structure names them by
//! slot id, so each [`CacheKey`] is held once and no path clones or
//! re-hashes keys to walk entries:
//!
//! * **Lookup** hashes the query's `(template id, parameters)` once and
//!   follows the hash to a slot (entries whose hashes collide chain
//!   through their slots).
//! * **Eviction** pops the least-recently-used slot from a `BTreeMap`
//!   keyed by the logical LRU clock (`last_used` values are unique, so
//!   the map's first key is always the victim).
//! * **Fills** find the *bucket* of their template id — the per-template
//!   record every stored template id gets, blind included: the template
//!   and its canonical text, rendered once. A fill counts its statement
//!   length from that text, and a blind or template fill renders the text
//!   it seals into one buffer the cache reuses.
//! * **Invalidation** ([`ResultCache::invalidate_candidates`]) is a
//!   candidate generator in front of the caller's per-entry judge. A
//!   bucket also holds its template id's `template`-level-and-above
//!   entries, grouped by exposure level; a bucket the IPM does not mark
//!   as conflicting, or that holds none, is never visited. Within a
//!   visited bucket a [`Probe`] — the bucket's [`Rule`] for the update's
//!   template, derived on the first such update and kept — narrows the
//!   `stmt`/`view` groups to the entries a value index returns — an index
//!   over one bound parameter, or over one result column — and only those
//!   reach the judge. The indexes are built from
//!   [`CacheEntry::visible_statement`] /
//!   [`CacheEntry::visible_result`] alone, on the first probe that asks
//!   for them, and maintained at attach/detach from then on. Their
//!   notion of "equal" is `CmpOp::Eq`'s (numeric across `Int`/`Real`):
//!   postings are keyed by a hash of the value's canonical numeric form,
//!   and a hash collision only adds a candidate the judge then spares.
//!   A hash maps to its slots, ascending: a probe is one lookup, and a
//!   victim costs a lookup and a removal per value. The bucket map and the
//!   postings hash with [`scs_storage::KeyedState`], the key map SipHash.
//!   Blind-level entries live in a separate always-candidate list,
//!   because Property 1 makes every blind entry a victim of every
//!   update — no index may ever hide one from an invalidation pass.

use crate::strategy::{probe_rule, Probe, Rule};
use scs_core::ExposureLevel;
use scs_crypto::{CryptoMeter, Encryptor};
use scs_sqlkit::{
    render_statement, statement_len, Query, QueryTemplate, TemplateId, Update, UpdateTemplate,
    Value,
};
use scs_storage::{KeyMap, KeyedState, QueryResult};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

/// Canonical identity of a cached query instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub template_id: TemplateId,
    pub params: Vec<Value>,
}

/// A cached query result with exposure-gated visibility.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    key: CacheKey,
    level: ExposureLevel,
    query: Query,
    result: QueryResult,
    /// Approximate stored size in bytes (header + payload, with the
    /// encryption envelope overhead when the result is encrypted).
    pub stored_bytes: usize,
    /// Length of the plaintext statement text (0 below `stmt` exposure,
    /// where the text is never in the clear) and the result's
    /// [`QueryResult::approx_size_bytes`] — what inspecting the entry
    /// reveals, summed per bucket group so the audit plane can meter the
    /// pairs an index spared without visiting them.
    statement_bytes: usize,
    result_bytes: usize,
    /// Logical timestamp of the last lookup or store (LRU bookkeeping).
    last_used: u64,
    /// Simulation time (µs) past which the entry may no longer be served
    /// — the staleness lease. `u64::MAX` when the cache has no lease.
    expires_at_micros: u64,
    /// Simulation time (µs) the entry was stored — the freshness plane
    /// ages serves against this birth stamp.
    stored_at_micros: u64,
    /// Home update epoch the entry's result reflects (the fill's, as the
    /// proxy read it off the home before the store; 0 when unstamped).
    stored_epoch: u64,
    /// Invalidation stream `stored_epoch` counts on: 0 for the classic
    /// single home; a shard id when the fill came from a sharded home
    /// (a scatter-gather fill is stamped with its first participant's
    /// stream — the lease, not this stamp, is the staleness bound).
    stored_stream: u64,
}

impl CacheEntry {
    /// The exposure level the entry was cached under.
    pub fn level(&self) -> ExposureLevel {
        self.level
    }

    /// The template id — visible at `template` exposure and above.
    pub fn visible_template_id(&self) -> Option<TemplateId> {
        (self.level >= ExposureLevel::Template).then_some(self.key.template_id)
    }

    /// The full query statement — visible at `stmt` exposure and above.
    pub fn visible_statement(&self) -> Option<&Query> {
        (self.level >= ExposureLevel::Stmt).then_some(&self.query)
    }

    /// The materialized result — visible only at `view` exposure.
    pub fn visible_result(&self) -> Option<&QueryResult> {
        (self.level == ExposureLevel::View).then_some(&self.result)
    }

    /// Serves the stored result to the client (who holds the decryption
    /// key); not part of any invalidation strategy's view.
    pub fn serve(&self) -> &QueryResult {
        &self.result
    }

    pub fn key(&self) -> &CacheKey {
        &self.key
    }

    /// When the entry's staleness lease runs out (µs; `u64::MAX` = no
    /// lease).
    pub fn expires_at_micros(&self) -> u64 {
        self.expires_at_micros
    }

    /// Simulation time the entry was stored (µs).
    pub fn stored_at_micros(&self) -> u64 {
        self.stored_at_micros
    }

    /// Home update epoch the entry's result reflects.
    pub fn stored_epoch(&self) -> u64 {
        self.stored_epoch
    }

    /// Invalidation stream [`CacheEntry::stored_epoch`] counts on.
    pub fn stored_stream(&self) -> u64 {
        self.stored_stream
    }

    /// What reading this entry in the clear reveals: the bytes of its
    /// statement text (0 below `stmt` exposure) and of its result rows
    /// (what a `view`-level inspection reads).
    pub(crate) fn inspection_bytes(&self) -> (u64, u64) {
        (self.statement_bytes as u64, self.result_bytes as u64)
    }

    /// Whether a row of the visible result lacks a select position.
    fn has_short_rows(&self) -> bool {
        let width = self.query.template.select.len();
        let rows = self.visible_result().map_or(&[][..], |r| &r.rows);
        rows.iter().any(|row| row.len() < width)
    }

    fn is_instance_of(&self, template_id: TemplateId, params: &[Value]) -> bool {
        self.key.template_id == template_id && self.key.params == params
    }
}

/// What a lease-aware lookup found.
#[derive(Debug)]
pub enum Lookup<'a> {
    /// A live, within-lease entry.
    Hit(&'a CacheEntry),
    /// An entry existed but its lease had run out; it has been dropped.
    Expired,
    /// No entry.
    Miss,
}

/// What [`ResultCache::store_with_evictions`] did: whether the entry
/// went in, whether it displaced a live entry under the same key, and
/// which entries the capacity bound pushed out to make room.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreOutcome {
    pub stored: bool,
    /// A live entry already existed for the key; its bytes were
    /// reconciled out of the accounting before the new entry went in.
    /// Replacement is *not* an eviction.
    pub replaced: bool,
    pub evicted: Vec<CacheKey>,
}

/// What one [`ResultCache::invalidate_candidates`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanOutcome {
    /// (update, entry) pairs the pass *decided*: the sizes of the visited
    /// buckets plus the blind list — what a walk of those buckets would
    /// have judged one by one.
    pub scanned: usize,
    /// How many of those reached the judge; the rest were spared by a
    /// probe.
    pub inspected: usize,
    pub invalidated: usize,
    /// The spared pairs, per bucket group, for the audit plane.
    pub pruned: Vec<PrunedPairs>,
}

/// Pairs of one bucket group a probe spared the judge: each is decided
/// "keep" at the inspection tier of the entry's level (`view` for a
/// `view` entry, `statement` for a `stmt` one), having revealed its
/// template id, its statement text and — at `view` — its rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrunedPairs {
    pub template_id: TemplateId,
    pub level: ExposureLevel,
    pub pairs: u64,
    pub statement_bytes: u64,
    /// Bytes of the spared entries' results — revealed only at `view`.
    pub result_bytes: u64,
}

/// Arena index of a live entry.
type SlotId = u32;

struct Slot {
    entry: CacheEntry,
    /// Hash of the entry's key, and the next slot whose key hashes alike.
    key_hash: u64,
    next_alike: Option<SlotId>,
    /// Position in the member list that holds this slot: its bucket
    /// group's, or the blind list's.
    pos: u32,
}

/// The entries of one template id cached at one exposure level, with the
/// running totals of what inspecting all of them would reveal.
#[derive(Default)]
struct Group {
    slots: Vec<SlotId>,
    statement_bytes: u64,
    result_bytes: u64,
}

/// A bucket's groups, lowest exposure first; blind entries never enter a
/// bucket.
const GROUP_LEVELS: [ExposureLevel; 3] = [
    ExposureLevel::Template,
    ExposureLevel::Stmt,
    ExposureLevel::View,
];

fn group_of(level: ExposureLevel) -> Option<usize> {
    GROUP_LEVELS.iter().position(|l| *l == level)
}

/// Which visible field of an entry a value index covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IndexedField {
    /// Bound parameter `i` of the visible statement (`stmt` and `view`
    /// entries).
    Param(usize),
    /// Select position `i` of every row of the visible result (`view`
    /// entries).
    ResultColumn(usize),
}

impl IndexedField {
    /// Calls `f` on each value of `e` this index covers — read through
    /// the exposure-gated accessors only, so an index can never hold
    /// what the entry's level encrypts.
    fn for_each_value(self, e: &CacheEntry, mut f: impl FnMut(&Value)) {
        match self {
            IndexedField::Param(i) => {
                if let Some(v) = e.visible_statement().and_then(|q| q.params.get(i)) {
                    f(v);
                }
            }
            IndexedField::ResultColumn(i) => {
                let rows = e.visible_result().map_or(&[][..], |r| &r.rows);
                rows.iter().filter_map(|row| row.get(i)).for_each(f);
            }
        }
    }
}

/// An inverted index `value → slots` over one field of a bucket's
/// entries: the hash of a value's canonical form maps to the slots posted
/// under it, ascending and each once, and a hash left with none goes. A
/// probe returns that list as a slice, in the judge's candidate order.
struct ValueIndex {
    field: IndexedField,
    postings: KeyMap<u64, Vec<SlotId>>,
}

impl ValueIndex {
    /// Posts slot `id` under each value of `e` the index covers.
    fn post(&mut self, e: &CacheEntry, id: SlotId) {
        let postings = &mut self.postings;
        self.field.for_each_value(e, |v| {
            let list = postings.entry(probe_hash(v)).or_default();
            if let Err(at) = list.binary_search(&id) {
                list.insert(at, id);
            }
        });
    }

    /// Takes slot `id`'s postings for `e`'s values out.
    fn unpost(&mut self, e: &CacheEntry, id: SlotId) {
        let postings = &mut self.postings;
        self.field.for_each_value(e, |v| {
            if let Entry::Occupied(mut list) = postings.entry(probe_hash(v)) {
                let slots = list.get_mut();
                if let Ok(at) = slots.binary_search(&id) {
                    slots.remove(at);
                }
                if slots.is_empty() {
                    list.remove();
                }
            }
        });
    }

    /// The slots posted under `value`'s hash, ascending.
    fn probe(&self, value: &Value) -> &[SlotId] {
        let list = self.postings.get(&probe_hash(value));
        list.map_or(&[], Vec::as_slice)
    }
}

/// Hash under which a value is posted and probed. Values that
/// `CmpOp::Eq` calls equal hash alike: numerics go through `f64`, the
/// form `Value::cmp` itself compares `Int` with `Real` in (two large
/// `Int`s that round to one float merely share a posting list).
fn probe_hash(v: &Value) -> u64 {
    match v {
        Value::Int(i) => KeyedState.hash_one((*i as f64).to_bits()),
        Value::Real(r) => KeyedState.hash_one(r.get().to_bits()),
        Value::Str(s) => KeyedState.hash_one(s.as_str()),
    }
}

/// A bucket forgets its probe rules when it holds this many: a caller
/// minting update templates without end keeps a bounded number alive (an
/// application has a fixed handful).
const RULES_KEPT: usize = 64;

/// The per-template record of one template id: its template and canonical
/// text, which every fill reads, and its `template`-level-and-above entries.
/// Blind entries stay on the cache's `blind` list; a bucket holding none of
/// its own costs an invalidation pass nothing.
struct Bucket {
    /// The template the entries are instances of, for [`probe_rule`].
    template: Arc<QueryTemplate>,
    /// `template`'s canonical text, rendered once: an instance's statement
    /// is counted ([`statement_len`]) or rendered ([`render_statement`])
    /// from it.
    text: String,
    /// The probe rule of each update template met against `template`,
    /// keyed by the update template's `Arc` identity — held here, so its
    /// address cannot pass to another template while the rule is kept.
    /// Emptied when `template` is replaced.
    rules: Vec<(Arc<UpdateTemplate>, Rule)>,
    /// Cleared when an entry bound to a structurally different template
    /// arrives under this id, or a `view` entry with a row narrower than
    /// its select list (a cell the row lacks rules nothing out, so no
    /// result index may spare the entry); probes are off until the bucket
    /// empties.
    uniform: bool,
    groups: [Group; 3],
    indexes: Vec<ValueIndex>,
}

impl Bucket {
    fn new(template: Arc<QueryTemplate>) -> Bucket {
        Bucket {
            text: template.to_string(),
            template,
            rules: Vec::new(),
            uniform: true,
            groups: Default::default(),
            indexes: Vec::new(),
        }
    }

    /// Makes `template` the bucket's template (it holds no entries): its
    /// text is rendered and the rules of the one it replaces forgotten.
    fn retemplate(&mut self, template: &Arc<QueryTemplate>) {
        self.uniform = true;
        if !Arc::ptr_eq(&self.template, template) {
            self.template = template.clone();
            self.text = template.to_string();
            self.rules.clear();
        }
    }

    /// The probe rule of update template `ut` against the bucket's
    /// template, derived on the first update of `ut` the bucket meets.
    fn rule_for(&mut self, ut: &Arc<UpdateTemplate>) -> Rule {
        if let Some((_, rule)) = self.rules.iter().find(|(t, _)| Arc::ptr_eq(t, ut)) {
            return *rule;
        }
        if self.rules.len() >= RULES_KEPT {
            self.rules.clear();
        }
        let rule = probe_rule(ut, &self.template);
        self.rules.push((ut.clone(), rule));
        rule
    }

    /// `q`'s statement-text length: counted from the bucket's text when
    /// `q` is bound to the bucket's template, rendered otherwise.
    fn statement_len(&self, q: &Query) -> usize {
        if Arc::ptr_eq(&self.template, &q.template) {
            statement_len(&self.text, &q.params)
        } else {
            q.statement_text().len()
        }
    }

    /// Appends `q`'s statement text to `out`: substituted into the
    /// bucket's text when `q` is bound to the bucket's template, rendered
    /// from `q`'s own otherwise.
    fn render(&self, q: &Query, out: &mut String) {
        if Arc::ptr_eq(&self.template, &q.template) {
            render_statement(out, &self.text, &q.params);
        } else {
            out.push_str(&q.statement_text());
        }
    }

    fn len(&self) -> usize {
        self.groups.iter().map(|g| g.slots.len()).sum()
    }

    /// The index over `field`, built from the live entries on first use.
    fn index_for(&mut self, field: IndexedField, slots: &[Option<Slot>]) -> Option<&ValueIndex> {
        if !self.indexes.iter().any(|ix| ix.field == field) {
            let mut index = ValueIndex {
                field,
                postings: KeyMap::default(),
            };
            let members = self.groups.iter().flat_map(|g| &g.slots);
            for &id in members {
                if let Some(slot) = slots.get(id as usize).and_then(Option::as_ref) {
                    index.post(&slot.entry, id);
                }
            }
            self.indexes.push(index);
        }
        self.indexes.iter().find(|ix| ix.field == field)
    }
}

/// The bucket of `template_id`, made `template`'s when it holds no entry.
fn bucket_for<'b>(
    buckets: &'b mut KeyMap<TemplateId, Bucket>,
    template_id: TemplateId,
    template: &Arc<QueryTemplate>,
) -> &'b mut Bucket {
    let bucket = buckets
        .entry(template_id)
        .or_insert_with(|| Bucket::new(template.clone()));
    if bucket.len() == 0 {
        bucket.retemplate(template);
    }
    bucket
}

/// Removes `list[pos]` by swapping the last member in, and tells the
/// moved slot its new position.
fn swap_remove_member(list: &mut Vec<SlotId>, pos: u32, slots: &mut [Option<Slot>]) {
    let pos = pos as usize;
    if pos >= list.len() {
        return;
    }
    list.swap_remove(pos);
    let moved = list.get(pos).and_then(|&id| slots.get_mut(id as usize));
    if let Some(Some(moved)) = moved {
        moved.pos = pos as u32;
    }
}

/// The result cache, optionally bounded with LRU eviction.
pub struct ResultCache {
    /// The entries; a `None` slot is on the free list.
    slots: Vec<Option<Slot>>,
    free: Vec<SlotId>,
    /// Key hash → first slot of the chain of entries hashing to it.
    by_hash: HashMap<u64, SlotId>,
    /// Hashes keys for `by_hash`.
    hasher: RandomState,
    /// LRU order: `last_used → slot`. The logical clock advances on every
    /// store and lookup, so `last_used` values are unique and the map's
    /// first entry is always the eviction victim. Holds every live slot
    /// exactly once, so its length is the cache's.
    lru: BTreeMap<u64, SlotId>,
    /// Canonical template id → its bucket, made at the id's first fill
    /// whatever the level. A bucket lists the id's entries cached at
    /// `template` exposure or above. Blind entries are deliberately
    /// excluded — they are candidates for *every* update (Property 1) and
    /// live in `blind` instead. A bucket outlives its entries, so it
    /// remembers its text and which fields probes ask for.
    buckets: KeyMap<TemplateId, Bucket>,
    /// Blind-level entries: unconditionally part of every candidate scan.
    blind: Vec<SlotId>,
    /// The text a blind or template fill seals, rendered here (kept for
    /// its allocation).
    sealed_text: String,
    /// Candidate ids of the pass in progress (kept for its allocation).
    candidates: Vec<SlotId>,
    encryptor: Encryptor,
    /// Maximum number of entries (`None` = unbounded).
    capacity: Option<usize>,
    /// Logical clock for LRU bookkeeping.
    clock: u64,
    /// Entries dropped by capacity eviction (not by invalidation).
    evictions: u64,
    /// Stores that displaced a live entry under the same key.
    replacements: u64,
    /// Sum of `stored_bytes` over the *live* entries; replaced, evicted,
    /// expired, and invalidated entries are reconciled out.
    stored_bytes_total: u64,
    /// Staleness lease applied to stored entries (`None` = entries never
    /// expire, the paper's setting).
    lease_micros: Option<u64>,
    /// Current simulation time (µs), fed by the proxy; stays 0 outside a
    /// simulation.
    now_micros: u64,
    /// Entries dropped because their lease ran out before a lookup.
    lease_expirations: u64,
}

impl ResultCache {
    pub fn new(encryptor: Encryptor) -> ResultCache {
        ResultCache {
            slots: Vec::new(),
            free: Vec::new(),
            by_hash: HashMap::new(),
            hasher: RandomState::new(),
            lru: BTreeMap::new(),
            buckets: KeyMap::default(),
            blind: Vec::new(),
            sealed_text: String::new(),
            candidates: Vec::new(),
            encryptor,
            capacity: None,
            clock: 0,
            evictions: 0,
            replacements: 0,
            stored_bytes_total: 0,
            lease_micros: None,
            now_micros: 0,
            lease_expirations: 0,
        }
    }

    /// A cache bounded to `capacity` entries; the least-recently-used
    /// entry is evicted when a store would exceed it.
    pub fn with_capacity(encryptor: Encryptor, capacity: usize) -> ResultCache {
        let mut c = ResultCache::new(encryptor);
        c.capacity = Some(capacity.max(1));
        c
    }

    /// Entries evicted due to the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Sum of `stored_bytes` over the live entries.
    pub fn stored_bytes_total(&self) -> u64 {
        self.stored_bytes_total
    }

    /// Bounds staleness: stored entries expire `lease` µs after the
    /// store. `None` restores the unbounded default. Only affects
    /// entries stored afterwards.
    pub fn set_lease_micros(&mut self, lease: Option<u64>) {
        self.lease_micros = lease;
    }

    /// Attaches an envelope seal/open meter to this cache's encryptor
    /// (the leakage audit plane's crypto accounting). Subsequent key
    /// derivations and payload seals/opens tally on `meter`.
    pub fn meter_crypto(&mut self, meter: std::sync::Arc<CryptoMeter>) {
        self.encryptor.set_meter(meter);
    }

    /// Advances the cache's notion of "now" (µs). Leases are judged
    /// against this clock.
    pub fn set_now_micros(&mut self, now: u64) {
        self.now_micros = now;
    }

    /// Entries dropped at lookup because their lease had run out.
    pub fn lease_expirations(&self) -> u64 {
        self.lease_expirations
    }

    pub fn len(&self) -> usize {
        self.lru.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    fn slot(&self, id: SlotId) -> Option<&Slot> {
        self.slots.get(id as usize)?.as_ref()
    }

    fn key_hash(&self, template_id: TemplateId, params: &[Value]) -> u64 {
        self.hasher.hash_one((template_id, params))
    }

    /// The slot holding the entry for `(template_id, params)`, if cached.
    fn find(&self, key_hash: u64, template_id: TemplateId, params: &[Value]) -> Option<SlotId> {
        let mut next = self.by_hash.get(&key_hash).copied();
        while let Some(id) = next {
            let slot = self.slot(id)?;
            if slot.entry.is_instance_of(template_id, params) {
                return Some(id);
            }
            next = slot.next_alike;
        }
        None
    }

    fn find_query(&self, q: &Query) -> Option<SlotId> {
        self.find(
            self.key_hash(q.template_id, &q.params),
            q.template_id,
            &q.params,
        )
    }

    /// Inserts a fully-built entry, whose key hashes to `key_hash`, into
    /// every structure. The caller must have detached any prior entry
    /// under the same key.
    fn attach(&mut self, e: CacheEntry, key_hash: u64) {
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as SlotId
            }
        };
        self.stored_bytes_total += e.stored_bytes as u64;
        self.lru.insert(e.last_used, id);
        let members = match group_of(e.level) {
            None => &mut self.blind,
            Some(g) => {
                let bucket = bucket_for(&mut self.buckets, e.key.template_id, &e.query.template);
                if bucket.len() > 0
                    && !Arc::ptr_eq(&bucket.template, &e.query.template)
                    && *bucket.template != *e.query.template
                {
                    bucket.uniform = false;
                }
                if e.has_short_rows() {
                    bucket.uniform = false;
                }
                for ix in &mut bucket.indexes {
                    ix.post(&e, id);
                }
                match bucket.groups.get_mut(g) {
                    Some(group) => {
                        group.statement_bytes += e.statement_bytes as u64;
                        group.result_bytes += e.result_bytes as u64;
                        &mut group.slots
                    }
                    // `group_of` only names positions of `GROUP_LEVELS`.
                    None => &mut self.blind,
                }
            }
        };
        members.push(id);
        let pos = (members.len() - 1) as u32;
        let next_alike = self.by_hash.insert(key_hash, id);
        if let Some(slot) = self.slots.get_mut(id as usize) {
            *slot = Some(Slot {
                entry: e,
                key_hash,
                next_alike,
                pos,
            });
        }
    }

    /// Removes an entry from every structure, keeping the LRU map, the
    /// member lists and the value indexes consistent with the arena.
    fn detach(&mut self, id: SlotId) -> Option<CacheEntry> {
        let Slot {
            entry: e,
            key_hash,
            next_alike,
            pos,
        } = self.slots.get_mut(id as usize)?.take()?;
        self.free.push(id);
        self.stored_bytes_total -= e.stored_bytes as u64;
        self.lru.remove(&e.last_used);
        // Unlink from the chain of slots whose keys hash alike.
        if self.by_hash.get(&key_hash) == Some(&id) {
            match next_alike {
                Some(next) => self.by_hash.insert(key_hash, next),
                None => self.by_hash.remove(&key_hash),
            };
        } else {
            let mut at = self.by_hash.get(&key_hash).copied();
            while let Some(prev) = at.and_then(|p| self.slots.get_mut(p as usize)?.as_mut()) {
                if prev.next_alike == Some(id) {
                    prev.next_alike = next_alike;
                    break;
                }
                at = prev.next_alike;
            }
        }
        match group_of(e.level) {
            None => swap_remove_member(&mut self.blind, pos, &mut self.slots),
            Some(g) => {
                if let Some(bucket) = self.buckets.get_mut(&e.key.template_id) {
                    for ix in &mut bucket.indexes {
                        ix.unpost(&e, id);
                    }
                    if let Some(group) = bucket.groups.get_mut(g) {
                        group.statement_bytes -= e.statement_bytes as u64;
                        group.result_bytes -= e.result_bytes as u64;
                        swap_remove_member(&mut group.slots, pos, &mut self.slots);
                    }
                }
            }
        }
        Some(e)
    }

    /// Evicts least-recently-used entries until the capacity bound holds
    /// again; returns the victims' keys, oldest first.
    fn evict_over_capacity(&mut self) -> Vec<CacheKey> {
        let mut evicted = Vec::new();
        let Some(cap) = self.capacity else {
            return evicted;
        };
        while self.len() > cap {
            let Some((_, victim)) = self.lru.pop_first() else {
                break;
            };
            if let Some(e) = self.detach(victim) {
                self.evictions += 1;
                evicted.push(e.key);
            }
        }
        evicted
    }

    /// Looks up a query, refreshing its LRU position. The key form the
    /// client sends depends on the exposure level, but all forms resolve
    /// to the canonical key. An entry whose lease has run out is dropped
    /// and reported as [`Lookup::Expired`] — it must never be served,
    /// however the home server is faring.
    pub fn lookup_classified(&mut self, q: &Query) -> Lookup<'_> {
        self.clock += 1;
        let clock = self.clock;
        let Some(id) = self.find_query(q) else {
            return Lookup::Miss;
        };
        if self
            .slot(id)
            .is_some_and(|s| s.entry.expires_at_micros < self.now_micros)
        {
            self.detach(id);
            self.lease_expirations += 1;
            return Lookup::Expired;
        }
        let Some(Some(slot)) = self.slots.get_mut(id as usize) else {
            return Lookup::Miss;
        };
        let prior = std::mem::replace(&mut slot.entry.last_used, clock);
        self.lru.remove(&prior);
        self.lru.insert(clock, id);
        Lookup::Hit(&slot.entry)
    }

    /// [`ResultCache::lookup_classified`] collapsed to an `Option` —
    /// expired entries read as misses.
    pub fn lookup(&mut self, q: &Query) -> Option<&CacheEntry> {
        match self.lookup_classified(q) {
            Lookup::Hit(e) => Some(e),
            Lookup::Expired | Lookup::Miss => None,
        }
    }

    /// Whether a fresh (within-lease) entry for `q` is present: a
    /// read-only probe with no LRU refresh and no expiry side effects.
    /// The overload layer routes on this without touching the home tier
    /// — an expired entry reads as not-fresh, exactly as
    /// [`ResultCache::lookup_classified`] would refuse to serve it.
    pub fn peek_fresh(&self, q: &Query) -> bool {
        self.peek(q)
            .is_some_and(|e| e.expires_at_micros >= self.now_micros)
    }

    /// Read-only lookup (no LRU refresh), for tests and diagnostics.
    pub fn peek(&self, q: &Query) -> Option<&CacheEntry> {
        self.find_query(q)
            .and_then(|id| self.slot(id))
            .map(|s| &s.entry)
    }

    /// Stores a result under the query's exposure level, unstamped.
    /// Empty results are not cached (see module docs); returns whether
    /// the entry was stored.
    pub fn store(&mut self, q: &Query, result: QueryResult, level: ExposureLevel) -> bool {
        self.store_with_evictions(q, result, level, 0, 0).stored
    }

    /// [`ResultCache::store`], stamping the entry with the invalidation
    /// stream and the epoch on it that the fill's result reflects (stream
    /// 0 for a classic home, the first participating shard's for a
    /// sharded one), and reporting whether a live entry was replaced and
    /// which entries the capacity bound evicted — the proxy's telemetry
    /// attributes each victim to its query template.
    pub fn store_with_evictions(
        &mut self,
        q: &Query,
        result: QueryResult,
        level: ExposureLevel,
        stream: u64,
        epoch: u64,
    ) -> StoreOutcome {
        if result.is_empty() {
            return StoreOutcome::default();
        }
        // Approximate stored size: encrypted payloads carry the envelope
        // overhead of the deterministic cipher. The statement comes from
        // the bucket's text when `q` is bound to its template: counted in
        // the clear, rendered into `sealed_text` to be sealed.
        let bucket = bucket_for(&mut self.buckets, q.template_id, &q.template);
        let text = &mut self.sealed_text;
        text.clear();
        let key_bytes = match level {
            ExposureLevel::View | ExposureLevel::Stmt => bucket.statement_len(q),
            ExposureLevel::Template => {
                // Writing to a `String` cannot fail.
                let _ = write!(text, "{:?}", q.params);
                8 + self.encryptor.encrypt_str(text).len()
            }
            ExposureLevel::Blind => {
                bucket.render(q, text);
                self.encryptor.encrypt_str(text).len()
            }
        };
        let result_bytes = result.approx_size_bytes();
        let envelope = if level == ExposureLevel::View { 0 } else { 8 };
        self.clock += 1;
        let e = CacheEntry {
            key: CacheKey {
                template_id: q.template_id,
                params: q.params.clone(),
            },
            level,
            query: q.clone(),
            result,
            stored_bytes: key_bytes + result_bytes + envelope,
            statement_bytes: if level >= ExposureLevel::Stmt {
                key_bytes
            } else {
                0
            },
            result_bytes,
            last_used: self.clock,
            expires_at_micros: match self.lease_micros {
                Some(lease) => self.now_micros.saturating_add(lease),
                None => u64::MAX,
            },
            stored_at_micros: self.now_micros,
            stored_epoch: epoch,
            stored_stream: stream,
        };
        // A live entry under the same key is replaced, not evicted: its
        // bytes and index membership are reconciled out first. Then the
        // capacity bound applies.
        let key_hash = self.key_hash(e.key.template_id, &e.key.params);
        let prior = self.find(key_hash, e.key.template_id, &e.key.params);
        let replaced = prior.and_then(|id| self.detach(id)).is_some();
        if replaced {
            self.replacements += 1;
        }
        self.attach(e, key_hash);
        StoreOutcome {
            stored: true,
            replaced,
            evicted: self.evict_over_capacity(),
        }
    }

    /// Removes every entry the predicate marks for invalidation; returns
    /// `(entries_scanned, entries_invalidated)`. This is the full-scan
    /// path: recovery flushes and blind updates must see every entry.
    pub fn invalidate_where(
        &mut self,
        mut must_invalidate: impl FnMut(&CacheEntry) -> bool,
    ) -> (usize, usize) {
        let scanned = self.len();
        let mut invalidated = 0;
        for id in 0..self.slots.len() as SlotId {
            if self.slot(id).is_some_and(|s| must_invalidate(&s.entry)) {
                self.detach(id);
                invalidated += 1;
            }
        }
        (scanned, invalidated)
    }

    /// One update's invalidation pass over the *candidate* entries: every
    /// blind-level entry (Property 1 — either side blind ⇒ invalidate, so
    /// no index may hide them) plus entries of the given query templates.
    /// Callers pass the templates the IPM marks as conflicting with the
    /// update; entries of untouched templates are never visited.
    ///
    /// `update` is the update's statement when its exposure makes it
    /// visible. With it, a bucket whose template admits a [`Probe`] hands
    /// the judge only the entries its value index returns; the rest of
    /// the bucket counts as scanned and is reported in
    /// [`ScanOutcome::pruned`]. Sound only for a judge that is
    /// [`crate::strategy::decide`] on that update — the probes spare
    /// exactly entries `decide` keeps.
    pub fn invalidate_candidates(
        &mut self,
        templates: &[TemplateId],
        update: Option<&Update>,
        mut must_invalidate: impl FnMut(&CacheEntry) -> bool,
    ) -> ScanOutcome {
        let mut out = ScanOutcome {
            scanned: self.blind.len(),
            ..ScanOutcome::default()
        };
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        candidates.extend_from_slice(&self.blind);
        for &template_id in templates {
            let Some(bucket) = self.buckets.get_mut(&template_id) else {
                continue;
            };
            if bucket.len() == 0 {
                continue;
            }
            out.scanned += bucket.len();
            let probe = match update {
                Some(u) if bucket.uniform => bucket.rule_for(&u.template).bind(u),
                _ => Probe::Bucket,
            };
            // `(first probed group, indexed field, probed value)`: groups
            // below the first probed one go to the judge whole; the
            // probe's hits stand in for the groups from it up.
            let probed = match probe {
                Probe::Bucket => None,
                Probe::Param { param, value } => Some((1, IndexedField::Param(param), value)),
                Probe::ResultKey { column, value } => {
                    Some((2, IndexedField::ResultColumn(column), value))
                }
            };
            let whole = probed.map_or(GROUP_LEVELS.len(), |(from, _, _)| from);
            for group in bucket.groups.iter().take(whole) {
                candidates.extend_from_slice(&group.slots);
            }
            let Some((probed_from, field, value)) = probed else {
                continue;
            };
            // What the probe returned, per group: (entries, statement
            // bytes, result bytes). The group's totals less these are the
            // pairs it spared.
            let mut hits = [(0u64, 0u64, 0u64); GROUP_LEVELS.len()];
            let Some(index) = bucket.index_for(field, &self.slots) else {
                // No index to ask: the probed groups go to the judge whole.
                for group in bucket.groups.iter().skip(probed_from) {
                    candidates.extend_from_slice(&group.slots);
                }
                continue;
            };
            for &id in index.probe(value) {
                let Some(e) = self.slots.get(id as usize).and_then(Option::as_ref) else {
                    continue;
                };
                candidates.push(id);
                if let Some(hit) = group_of(e.entry.level).and_then(|g| hits.get_mut(g)) {
                    hit.0 += 1;
                    hit.1 += e.entry.statement_bytes as u64;
                    hit.2 += e.entry.result_bytes as u64;
                }
            }
            let probed_groups = bucket.groups.iter().zip(hits).zip(GROUP_LEVELS);
            for ((group, hit), level) in probed_groups.skip(probed_from) {
                let pairs = (group.slots.len() as u64).saturating_sub(hit.0);
                if pairs > 0 {
                    out.pruned.push(PrunedPairs {
                        template_id,
                        level,
                        pairs,
                        statement_bytes: group.statement_bytes.saturating_sub(hit.1),
                        result_bytes: group.result_bytes.saturating_sub(hit.2),
                    });
                }
            }
        }
        for &id in &candidates {
            let Some(slot) = self.slot(id) else {
                continue;
            };
            out.inspected += 1;
            if must_invalidate(&slot.entry) {
                self.detach(id);
                out.invalidated += 1;
            }
        }
        self.candidates = candidates;
        out
    }

    /// Drops everything (a blind strategy's response to any update).
    pub fn clear(&mut self) -> usize {
        let n = self.len();
        self.slots.clear();
        self.free.clear();
        self.by_hash.clear();
        self.lru.clear();
        self.blind.clear();
        for bucket in self.buckets.values_mut() {
            bucket.groups = Default::default();
            for ix in &mut bucket.indexes {
                ix.postings.clear();
            }
        }
        self.stored_bytes_total = 0;
        n
    }

    /// Iterates over entries (used by statistics and tests).
    pub fn iter(&self) -> impl Iterator<Item = &CacheEntry> {
        self.slots.iter().flatten().map(|s| &s.entry)
    }
}

#[cfg(any(test, debug_assertions))]
impl ResultCache {
    /// Checks that the arena, the key-hash chains, the LRU map, the member
    /// lists, the group totals and the value indexes all describe the
    /// same set of live entries; `Err` names the first disagreement.
    pub fn check_invariants(&self) -> Result<(), String> {
        let live = self.slots.iter().flatten().count();
        let check = |ok: bool, what: &str| ok.then_some(()).ok_or_else(|| what.to_string());
        check(self.lru.len() == live, "LRU map holds each live slot once")?;
        check(
            self.free.len() + live == self.slots.len()
                && self.free.iter().all(|&id| self.slot(id).is_none()),
            "free list is exactly the dead slots",
        )?;
        let mut bytes = 0;
        for (id, slot) in self.slots.iter().enumerate() {
            let (Some(slot), id) = (slot, id as SlotId) else {
                continue;
            };
            let key = &slot.entry.key;
            bytes += slot.entry.stored_bytes as u64;
            check(
                self.lru.get(&slot.entry.last_used) == Some(&id),
                "LRU map names the slot under its clock",
            )?;
            check(
                slot.key_hash == self.key_hash(key.template_id, &key.params)
                    && self.find(slot.key_hash, key.template_id, &key.params) == Some(id),
                "key resolves to its own slot",
            )?;
            let bucket = self.buckets.get(&key.template_id);
            check(bucket.is_some(), "every entry's template id has a bucket")?;
            let members = match group_of(slot.entry.level) {
                None => Some(&self.blind),
                Some(g) => bucket.map(|b| &b.groups[g].slots),
            };
            check(
                members.and_then(|m| m.get(slot.pos as usize)) == Some(&id),
                "slot sits at its position in its level's member list",
            )?;
            check(
                slot.entry.level < ExposureLevel::Stmt
                    || slot.entry.statement_bytes == slot.entry.query.statement_text().len(),
                "a stmt/view entry's statement bytes are its rendered text's length",
            )?;
        }
        check(
            bytes == self.stored_bytes_total,
            "stored_bytes_total is the sum",
        )?;
        let mut listed = self.blind.len();
        for (template_id, bucket) in &self.buckets {
            listed += bucket.len();
            check(
                bucket.text == bucket.template.to_string(),
                "a bucket's text is its template's rendering",
            )?;
            check(
                bucket
                    .rules
                    .iter()
                    .all(|(ut, rule)| *rule == probe_rule(ut, &bucket.template)),
                "a bucket's rules are its template's, per update template",
            )?;
            let mut members = Vec::new();
            for (group, level) in bucket.groups.iter().zip(GROUP_LEVELS) {
                let entries = || group.slots.iter().filter_map(|&id| self.slot(id));
                check(
                    entries().count() == group.slots.len()
                        && entries().all(|s| {
                            s.entry.level == level && s.entry.key.template_id == *template_id
                        }),
                    "group lists live entries of its template and level",
                )?;
                check(
                    group.statement_bytes
                        == entries()
                            .map(|s| s.entry.statement_bytes as u64)
                            .sum::<u64>()
                        && group.result_bytes
                            == entries().map(|s| s.entry.result_bytes as u64).sum::<u64>(),
                    "group totals are the sums",
                )?;
                members.extend(group.slots.iter().copied().zip(entries()));
            }
            for ix in &bucket.indexes {
                let mut expected = Vec::new();
                for (id, slot) in &members {
                    ix.field
                        .for_each_value(&slot.entry, |v| expected.push((probe_hash(v), *id)));
                }
                expected.sort_unstable();
                expected.dedup();
                let mut posted = Vec::new();
                for (&hash, list) in &ix.postings {
                    posted.extend(list.iter().map(|&id| (hash, id)));
                }
                posted.sort_unstable();
                let ascending = |l: &Vec<SlotId>| !l.is_empty() && l.is_sorted_by(|a, b| a < b);
                check(
                    ix.postings.values().all(ascending) && posted == expected,
                    "index lists each live entry under each of its values, ascending, once",
                )?;
            }
        }
        check(
            listed == live,
            "every live slot is in exactly one member list",
        )?;
        let mut chained = 0;
        for &head in self.by_hash.values() {
            let mut at = Some(head);
            while let Some(slot) = at.and_then(|id| self.slot(id)) {
                chained += 1;
                at = slot.next_alike;
                check(chained <= live, "hash chains are acyclic")?;
            }
        }
        check(chained == live, "hash chains reach every live slot once")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scs_sqlkit::parse_query;

    fn query(tid: usize, param: i64) -> Query {
        let t = Arc::new(parse_query("SELECT a FROM t WHERE b = ?").unwrap());
        Query::bind(tid, t, vec![Value::Int(param)]).unwrap()
    }

    fn result(n: usize) -> QueryResult {
        QueryResult::new(
            vec!["t.a".into()],
            (0..n).map(|i| vec![Value::Int(i as i64)]).collect(),
        )
    }

    fn cache() -> ResultCache {
        ResultCache::new(Encryptor::for_app("test"))
    }

    /// A statement-blind candidate pass with a constant verdict:
    /// `(scanned, invalidated)`.
    fn scan(c: &mut ResultCache, templates: &[TemplateId], kill: bool) -> (usize, usize) {
        let out = c.invalidate_candidates(templates, None, |_| kill);
        assert_eq!(out.inspected, out.scanned, "no statement, no probe");
        c.check_invariants().unwrap();
        (out.scanned, out.invalidated)
    }

    #[test]
    fn store_and_lookup() {
        let mut c = cache();
        let q = query(0, 5);
        assert!(c.store(&q, result(2), ExposureLevel::View));
        assert_eq!(c.lookup(&q).unwrap().serve().len(), 2);
        assert!(c.lookup(&query(0, 6)).is_none());
        assert!(c.lookup(&query(1, 5)).is_none());
    }

    #[test]
    fn empty_results_not_cached() {
        let mut c = cache();
        let q = query(0, 5);
        assert!(!c.store(&q, result(0), ExposureLevel::View));
        assert!(c.lookup(&q).is_none());
    }

    #[test]
    fn visibility_gates_by_level() {
        let mut c = cache();
        for (level, tid) in [
            (ExposureLevel::View, 0),
            (ExposureLevel::Stmt, 1),
            (ExposureLevel::Template, 2),
            (ExposureLevel::Blind, 3),
        ] {
            c.store(&query(tid, 1), result(1), level);
        }
        let by_tid = |tid: usize| c.peek(&query(tid, 1)).unwrap();
        assert!(by_tid(0).visible_result().is_some());
        assert!(by_tid(0).visible_statement().is_some());
        assert!(by_tid(1).visible_result().is_none());
        assert!(by_tid(1).visible_statement().is_some());
        assert!(by_tid(2).visible_statement().is_none());
        assert_eq!(by_tid(2).visible_template_id(), Some(2));
        assert!(by_tid(3).visible_template_id().is_none());
        // Serving always works — the client decrypts.
        assert_eq!(by_tid(3).serve().len(), 1);
    }

    #[test]
    fn invalidate_where_removes_matches() {
        let mut c = cache();
        for p in 0..10 {
            c.store(&query(0, p), result(1), ExposureLevel::View);
        }
        let (scanned, dropped) =
            c.invalidate_where(|e| matches!(e.key().params[0], Value::Int(p) if p % 2 == 0));
        assert_eq!(scanned, 10);
        assert_eq!(dropped, 5);
        assert_eq!(c.len(), 5);
        assert!(c.lookup(&query(0, 1)).is_some());
        assert!(c.lookup(&query(0, 2)).is_none());
    }

    #[test]
    fn candidate_scan_visits_only_candidate_templates() {
        let mut c = cache();
        // Template 0: 4 entries, template 1: 3 entries, template 2: 2
        // entries — all at template exposure, so all indexed.
        for p in 0..4 {
            c.store(&query(0, p), result(1), ExposureLevel::Template);
        }
        for p in 0..3 {
            c.store(&query(1, p), result(1), ExposureLevel::Stmt);
        }
        for p in 0..2 {
            c.store(&query(2, p), result(1), ExposureLevel::View);
        }
        // Only template 1 is a candidate: the scan must visit exactly its
        // 3 entries, not all 9.
        let (scanned, dropped) = scan(&mut c, &[1], true);
        assert_eq!(scanned, 3);
        assert_eq!(dropped, 3);
        assert_eq!(c.len(), 6);
        assert!(c.peek(&query(0, 0)).is_some());
        assert!(c.peek(&query(2, 0)).is_some());
        // A template with no cached entries scans nothing.
        let (scanned, dropped) = scan(&mut c, &[7], true);
        assert_eq!((scanned, dropped), (0, 0));
    }

    #[test]
    fn blind_entries_are_always_candidates() {
        let mut c = cache();
        c.store(&query(0, 1), result(1), ExposureLevel::Blind);
        c.store(&query(1, 1), result(1), ExposureLevel::Template);
        // Even with an empty template list, every blind entry is visited
        // — Property 1 says no index may hide it from an update.
        let (scanned, dropped) = scan(&mut c, &[], true);
        assert_eq!(scanned, 1);
        assert_eq!(dropped, 1);
        assert!(c.peek(&query(0, 1)).is_none(), "blind entry invalidated");
        assert!(c.peek(&query(1, 1)).is_some(), "non-candidate survived");
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = cache();
        c.store(&query(0, 1), result(1), ExposureLevel::Blind);
        c.store(&query(0, 2), result(1), ExposureLevel::Blind);
        assert_eq!(c.clear(), 2);
        assert!(c.is_empty());
        assert_eq!(c.stored_bytes_total(), 0);
        c.check_invariants().unwrap();
        // The indexes were cleared too: a candidate scan finds nothing.
        let (scanned, _) = scan(&mut c, &[0], true);
        assert_eq!(scanned, 0);
    }

    #[test]
    fn restore_overwrites_and_reports_replacement() {
        let mut c = cache();
        let q = query(0, 1);
        let first = c.store_with_evictions(&q, result(1), ExposureLevel::View, 0, 0);
        assert!(first.stored && !first.replaced);
        let second = c.store_with_evictions(&q, result(3), ExposureLevel::View, 0, 0);
        assert!(second.stored && second.replaced);
        assert!(second.evicted.is_empty(), "replacement is not an eviction");
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(&q).unwrap().serve().len(), 3);
        assert_eq!(c.replacements, 1);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn replacement_reconciles_stored_bytes() {
        let mut c = cache();
        let q = query(0, 1);
        c.store(&q, result(5), ExposureLevel::View);
        let big = c.stored_bytes_total();
        c.store(&q, result(1), ExposureLevel::View);
        let small = c.stored_bytes_total();
        assert_eq!(small, c.peek(&q).unwrap().stored_bytes as u64);
        assert!(small < big, "replaced entry's bytes were reconciled out");
        // Replacing at a different exposure level moves the entry between
        // indexes; the old membership must not linger.
        c.store(&q, result(2), ExposureLevel::Blind);
        let (scanned, _) = scan(&mut c, &[0], false);
        assert_eq!(scanned, 1, "entry counted once, in the blind set");
        // ... and back up, into a group of the bucket.
        c.store(&q, result(2), ExposureLevel::Stmt);
        c.check_invariants().unwrap();
        assert_eq!(scan(&mut c, &[], true), (0, 0), "no longer blind");
        assert_eq!(scan(&mut c, &[0], true), (1, 1));
    }

    #[test]
    fn stored_bytes_total_tracks_removals() {
        let mut c = ResultCache::with_capacity(Encryptor::for_app("test"), 2);
        c.store(&query(0, 1), result(1), ExposureLevel::View);
        c.store(&query(0, 2), result(1), ExposureLevel::View);
        c.store(&query(0, 3), result(1), ExposureLevel::View); // evicts one
        let live: u64 = c.iter().map(|e| e.stored_bytes as u64).sum();
        assert_eq!(c.stored_bytes_total(), live);
        c.invalidate_where(|_| true);
        assert_eq!(c.stored_bytes_total(), 0);
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut c = ResultCache::with_capacity(Encryptor::for_app("test"), 3);
        for p in 0..3 {
            c.store(&query(0, p), result(1), ExposureLevel::View);
        }
        // Touch 0 and 1; storing a 4th entry must evict 2 (the LRU).
        c.lookup(&query(0, 0));
        c.lookup(&query(0, 1));
        c.store(&query(0, 3), result(1), ExposureLevel::View);
        assert_eq!(c.len(), 3);
        assert!(c.peek(&query(0, 0)).is_some());
        assert!(c.peek(&query(0, 1)).is_some());
        assert!(c.peek(&query(0, 2)).is_none(), "LRU victim");
        assert!(c.peek(&query(0, 3)).is_some());
        assert_eq!(c.evictions(), 1);
        c.check_invariants().unwrap();
    }

    #[test]
    fn eviction_order_is_exactly_least_recently_used() {
        // Pins the victim sequence under interleaved stores and lookups,
        // so the order-tracked eviction structure provably matches the
        // old full-scan `min_by_key` semantics.
        let mut c = ResultCache::with_capacity(Encryptor::for_app("test"), 4);
        for p in 0..4 {
            c.store(&query(0, p), result(1), ExposureLevel::View);
        }
        // Recency (old → new) is now 0,1,2,3. Touch 0 and 2: 1,3,0,2.
        c.lookup(&query(0, 0));
        c.lookup(&query(0, 2));
        let mut victims = Vec::new();
        for p in 4..8 {
            let outcome =
                c.store_with_evictions(&query(0, p), result(1), ExposureLevel::View, 0, 0);
            victims.extend(outcome.evicted.into_iter().map(|k| k.params[0].clone()));
        }
        assert_eq!(
            victims,
            vec![Value::Int(1), Value::Int(3), Value::Int(0), Value::Int(2)],
            "victims fall in exact LRU order"
        );
        assert_eq!(c.evictions(), 4);
    }

    #[test]
    fn store_outcome_reports_victims() {
        let mut c = ResultCache::with_capacity(Encryptor::for_app("test"), 2);
        assert!(c
            .store_with_evictions(&query(0, 1), result(1), ExposureLevel::View, 0, 0)
            .evicted
            .is_empty());
        c.store(&query(0, 2), result(1), ExposureLevel::View);
        let outcome = c.store_with_evictions(&query(0, 3), result(1), ExposureLevel::View, 0, 0);
        assert!(outcome.stored);
        assert_eq!(outcome.evicted.len(), 1);
        assert_eq!(outcome.evicted[0].params, vec![Value::Int(1)]);
        // Empty results: not stored, nothing evicted.
        let noop = c.store_with_evictions(&query(0, 9), result(0), ExposureLevel::View, 0, 0);
        assert!(!noop.stored && !noop.replaced && noop.evicted.is_empty());
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let mut c = cache();
        for p in 0..1000 {
            c.store(&query(0, p), result(1), ExposureLevel::View);
        }
        assert_eq!(c.len(), 1000);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn capacity_of_zero_clamps_to_one() {
        let mut c = ResultCache::with_capacity(Encryptor::for_app("test"), 0);
        c.store(&query(0, 1), result(1), ExposureLevel::View);
        c.store(&query(0, 2), result(1), ExposureLevel::View);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lease_expiry_drops_entries_at_lookup() {
        let mut c = cache();
        c.set_lease_micros(Some(100));
        c.set_now_micros(1_000);
        let q = query(0, 1);
        c.store(&q, result(2), ExposureLevel::View);
        // Within the lease window: served.
        c.set_now_micros(1_100);
        assert!(matches!(c.lookup_classified(&q), Lookup::Hit(_)));
        // Past the lease: dropped, classified as expired, then gone.
        c.set_now_micros(1_101);
        assert!(matches!(c.lookup_classified(&q), Lookup::Expired));
        assert!(matches!(c.lookup_classified(&q), Lookup::Miss));
        assert_eq!(c.lease_expirations(), 1);
        assert_eq!(c.len(), 0);
        assert_eq!(c.stored_bytes_total(), 0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn no_lease_means_no_expiry() {
        let mut c = cache();
        let q = query(0, 1);
        c.store(&q, result(1), ExposureLevel::View);
        c.set_now_micros(u64::MAX - 1);
        assert!(c.lookup(&q).is_some());
        assert_eq!(c.lease_expirations(), 0);
    }

    #[test]
    fn restore_renews_the_lease() {
        let mut c = cache();
        c.set_lease_micros(Some(50));
        let q = query(0, 1);
        c.set_now_micros(0);
        c.store(&q, result(1), ExposureLevel::View);
        c.set_now_micros(40);
        c.store(&q, result(3), ExposureLevel::View);
        // The first store's lease (0..=50) has passed, the second's
        // (40..=90) has not.
        c.set_now_micros(85);
        assert_eq!(c.lookup(&q).unwrap().serve().len(), 3);
    }

    #[test]
    fn encrypted_entries_are_larger() {
        let mut c = cache();
        c.store(&query(0, 1), result(5), ExposureLevel::View);
        c.store(&query(1, 1), result(5), ExposureLevel::Blind);
        let view = c.lookup(&query(0, 1)).unwrap().stored_bytes;
        let blind = c.lookup(&query(1, 1)).unwrap().stored_bytes;
        assert!(blind > view, "encryption envelope adds overhead");
    }

    fn delete_b(value: Value) -> Update {
        let t = Arc::new(scs_sqlkit::parse_update("DELETE FROM t WHERE b = ?").unwrap());
        Update::bind(0, t, vec![value]).unwrap()
    }

    /// A probed pass judging with "keep": `(scanned, inspected)` and the
    /// pairs it spared.
    fn probe(c: &mut ResultCache, u: &Update) -> (usize, usize, Vec<PrunedPairs>) {
        let out = c.invalidate_candidates(&[0], Some(u), |_| false);
        c.check_invariants().unwrap();
        (out.scanned, out.inspected, out.pruned)
    }

    #[test]
    fn parameter_probe_hands_the_judge_only_equal_instances() {
        let mut c = cache();
        let t = Arc::new(parse_query("SELECT a FROM t WHERE b = ?").unwrap());
        let spelled = |v: Value| Query::bind(0, t.clone(), vec![v]).unwrap();
        for p in 0..10 {
            c.store(&spelled(Value::Int(p)), result(1), ExposureLevel::View);
        }
        // The same value as a `Real`, at `stmt` exposure: a different
        // key, an equal parameter.
        c.store(&spelled(Value::real(3.0)), result(1), ExposureLevel::Stmt);
        c.store(&query(1, 3), result(1), ExposureLevel::Blind);
        let mut judged = Vec::new();
        let out = c.invalidate_candidates(&[0], Some(&delete_b(Value::Int(3))), |e| {
            judged.push((e.level(), e.key().params[0].clone()));
            e.level() != ExposureLevel::Blind
        });
        assert_eq!((out.scanned, out.inspected, out.invalidated), (12, 3, 2));
        judged.sort();
        let blind_first = vec![
            (ExposureLevel::Blind, Value::Int(3)),
            (ExposureLevel::Stmt, Value::real(3.0)),
            (ExposureLevel::View, Value::Int(3)),
        ];
        assert_eq!(judged, blind_first);
        // The nine spared `view` pairs carry their entries' bytes.
        let spared: Vec<_> = c
            .iter()
            .filter(|e| e.level() == ExposureLevel::View)
            .collect();
        let expected = PrunedPairs {
            template_id: 0,
            level: ExposureLevel::View,
            pairs: 9,
            statement_bytes: spared.iter().map(|e| e.statement_bytes as u64).sum(),
            result_bytes: spared.iter().map(|e| e.result_bytes as u64).sum(),
        };
        assert_eq!(out.pruned, vec![expected]);
        c.check_invariants().unwrap();
        // The index was built by that pass; stores, a replacement at
        // another level, an eviction-free detach and `clear` keep it.
        c.store(&spelled(Value::Int(3)), result(2), ExposureLevel::Template);
        c.store(&spelled(Value::Int(4)), result(2), ExposureLevel::Stmt);
        let (scanned, inspected, _) = probe(&mut c, &delete_b(Value::real(4.0)));
        assert_eq!(
            (scanned, inspected),
            (11, 3),
            "blind + template-level + the hit"
        );
        c.clear();
        c.check_invariants().unwrap();
        c.store(&spelled(Value::Int(4)), result(1), ExposureLevel::View);
        assert_eq!(probe(&mut c, &delete_b(Value::Int(5))).1, 0);
        assert_eq!(probe(&mut c, &delete_b(Value::Int(4))).1, 1);
    }

    /// Slot reuse puts a later entry on a lower slot under one posted
    /// value; the probe still hands the judge that value's slots in
    /// ascending order.
    #[test]
    fn a_probe_hands_the_judge_its_slots_in_ascending_order() {
        let mut c = cache();
        let t = Arc::new(parse_query("SELECT a FROM t WHERE b = ? AND c = ?").unwrap());
        let instance = |k: i64| Query::bind(0, t.clone(), vec![Value::Int(1), Value::Int(k)]);
        for k in 0..3 {
            c.store(&instance(k).unwrap(), result(1), ExposureLevel::View);
        }
        // The first probed pass builds the index over `b`.
        assert_eq!(probe(&mut c, &delete_b(Value::Int(1))).1, 3);
        c.invalidate_where(|e| e.key().params[1] == Value::Int(0));
        for k in 3..5 {
            c.store(&instance(k).unwrap(), result(1), ExposureLevel::View);
        }
        let mut judged = Vec::new();
        c.invalidate_candidates(&[0], Some(&delete_b(Value::Int(1))), |e| {
            judged.push(e.key().clone());
            false
        });
        let slots: Vec<_> = judged
            .iter()
            .map(|k| {
                c.find(
                    c.key_hash(k.template_id, &k.params),
                    k.template_id,
                    &k.params,
                )
            })
            .collect();
        assert_eq!(slots, [Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(judged[0].params[1], Value::Int(3), "the refill took slot 0");
        c.check_invariants().unwrap();
    }

    /// Values `CmpOp::Eq` calls equal share a probe hash: across `Int` and
    /// `Real`, through `-0.0`, and for `Int`s that round to one float.
    #[test]
    fn equal_values_share_a_probe_hash() {
        for i in [0, 7, -3, 1 << 40] {
            assert_eq!(
                probe_hash(&Value::Int(i)),
                probe_hash(&Value::real(i as f64))
            );
        }
        assert_eq!(probe_hash(&Value::real(-0.0)), probe_hash(&Value::Int(0)));
        let big = 1i64 << 53;
        assert_eq!(
            probe_hash(&Value::Int(big)),
            probe_hash(&Value::Int(big + 1))
        );
        assert_ne!(
            probe_hash(&Value::Int(big)),
            probe_hash(&Value::Int(big + 2))
        );
        assert_ne!(probe_hash(&Value::Int(7)), probe_hash(&Value::str("7")));
    }

    #[test]
    fn result_key_probe_spares_view_entries_without_the_row() {
        let mut c = cache();
        let t = Arc::new(parse_query("SELECT a, b FROM t WHERE c = ?").unwrap());
        let rows = |keys: &[i64]| {
            let rows = keys.iter().map(|k| vec![Value::Int(*k), Value::Int(0)]);
            QueryResult::new(vec!["t.a".into(), "t.b".into()], rows.collect())
        };
        let instance = |p: i64| Query::bind(0, t.clone(), vec![Value::Int(p)]).unwrap();
        c.store(&instance(1), rows(&[1, 2, 2]), ExposureLevel::View);
        c.store(&instance(2), rows(&[2, 3]), ExposureLevel::View);
        c.store(&instance(3), rows(&[4]), ExposureLevel::View);
        c.store(&instance(4), rows(&[2]), ExposureLevel::Stmt);
        let delete_a = |v: Value| {
            let t = Arc::new(scs_sqlkit::parse_update("DELETE FROM t WHERE a = ?").unwrap());
            Update::bind(0, t, vec![v]).unwrap()
        };
        // `a = 2.0`: the two view entries holding a row with a = 2, plus
        // the stmt entry the result-key rule cannot vouch for.
        let (scanned, inspected, pruned) = probe(&mut c, &delete_a(Value::real(2.0)));
        assert_eq!((scanned, inspected), (4, 3));
        assert_eq!((pruned.len(), pruned[0].pairs), (1, 1));
        assert_eq!(
            probe(&mut c, &delete_a(Value::Int(9))).1,
            1,
            "the stmt entry"
        );
        // Eviction and lease expiry leave no posting behind.
        let mut small = ResultCache::with_capacity(Encryptor::for_app("test"), 2);
        small.set_lease_micros(Some(10));
        small.store(&instance(1), rows(&[1, 2]), ExposureLevel::View);
        assert_eq!(probe(&mut small, &delete_a(Value::Int(2))).1, 1);
        small.store(&instance(2), rows(&[2]), ExposureLevel::View);
        small.store(&instance(3), rows(&[2, 5]), ExposureLevel::View);
        small.check_invariants().unwrap();
        assert_eq!(probe(&mut small, &delete_a(Value::Int(1))).1, 0, "evicted");
        small.set_now_micros(11);
        assert!(matches!(
            small.lookup_classified(&instance(3)),
            Lookup::Expired
        ));
        small.check_invariants().unwrap();
        assert_eq!(probe(&mut small, &delete_a(Value::Int(5))).1, 0, "expired");
        assert_eq!(probe(&mut small, &delete_a(Value::Int(2))).1, 1);
    }

    #[test]
    fn mixed_templates_under_one_id_turn_probes_off() {
        let mut c = cache();
        c.store(&query(0, 1), result(1), ExposureLevel::View);
        let other = Arc::new(parse_query("SELECT a FROM t WHERE c = ?").unwrap());
        let stranger = Query::bind(0, other, vec![Value::Int(2)]).unwrap();
        c.store(&stranger, result(1), ExposureLevel::View);
        assert_eq!(probe(&mut c, &delete_b(Value::Int(7))).1, 2, "whole bucket");
        // Once the bucket empties, the next template is trusted again.
        c.invalidate_where(|_| true);
        c.store(&query(0, 1), result(1), ExposureLevel::View);
        assert_eq!(probe(&mut c, &delete_b(Value::Int(7))).1, 0);
    }

    /// A statement-visible pass judged by `decide` over a one-update,
    /// one-query IPM that proves nothing: `(inspected, invalidated)`.
    fn decided(c: &mut ResultCache, u: &Update) -> (usize, usize) {
        use crate::strategy::{decide, UpdateView};
        let matrix = scs_core::IpmMatrix {
            entries: vec![vec![scs_core::IpmEntry::CONSERVATIVE]],
        };
        let uv = UpdateView::new(u, ExposureLevel::Stmt);
        let out = c.invalidate_candidates(&[0], Some(u), |e| decide(&matrix, &uv, e).0);
        c.check_invariants().unwrap();
        (out.inspected, out.invalidated)
    }

    fn bind(template: &Arc<UpdateTemplate>, value: i64) -> Update {
        Update::bind(0, template.clone(), vec![Value::Int(value)]).unwrap()
    }

    /// The bucket's template is replaced once it empties; the rules the
    /// old one derived must go with it. Here the old rule probes bound
    /// parameter 0, which the new template binds to `c`, not `b`.
    #[test]
    fn a_replaced_template_forgets_its_rules() {
        let mut c = cache();
        let delete_b = Arc::new(scs_sqlkit::parse_update("DELETE FROM t WHERE b = ?").unwrap());
        for p in 0..4 {
            c.store(&query(0, p), result(1), ExposureLevel::View);
        }
        assert_eq!(decided(&mut c, &bind(&delete_b, 3)), (1, 1));
        c.invalidate_where(|_| true);
        let t = Arc::new(parse_query("SELECT a FROM t WHERE c = ? AND b = ?").unwrap());
        for p in 0..4 {
            let q = Query::bind(0, t.clone(), vec![Value::Int(9), Value::Int(p)]).unwrap();
            c.store(&q, result(1), ExposureLevel::View);
        }
        assert_eq!(
            decided(&mut c, &bind(&delete_b, 3)),
            (1, 1),
            "b = 3's entry"
        );
    }

    /// Rules are kept per update *template*, by identity: two update
    /// templates bound under one id get a rule each.
    #[test]
    fn rules_are_kept_per_update_template_identity() {
        let mut c = cache();
        for p in 0..4 {
            c.store(&query(0, p), result(1), ExposureLevel::View);
        }
        let delete_b = Arc::new(scs_sqlkit::parse_update("DELETE FROM t WHERE b = ?").unwrap());
        let delete_a = Arc::new(scs_sqlkit::parse_update("DELETE FROM t WHERE a = ?").unwrap());
        assert_eq!(decided(&mut c, &bind(&delete_b, 9)), (0, 0));
        // Every cached result holds a row with a = 0.
        assert_eq!(decided(&mut c, &bind(&delete_a, 0)), (4, 4));
    }

    /// A `view` entry whose rows lack a select position reaches `decide`
    /// (the result-key index cannot vouch for it), which invalidates it
    /// rather than reading past the row.
    #[test]
    fn a_short_row_view_entry_is_invalidated_not_a_panic() {
        let mut c = cache();
        c.store(&query(0, 1), result(1), ExposureLevel::View);
        let short = QueryResult::new(vec!["t.a".into()], vec![vec![]]);
        assert!(c.store(&query(0, 2), short, ExposureLevel::View));
        let delete_a = Arc::new(scs_sqlkit::parse_update("DELETE FROM t WHERE a = ?").unwrap());
        assert_eq!(decided(&mut c, &bind(&delete_a, 7)), (2, 1));
        assert!(c.peek(&query(0, 2)).is_none(), "the short-row entry");
    }

    /// Stores `q` at a sealed `level` and checks the fill against the one
    /// that rendered its statement afresh: the key bytes of
    /// `encrypt_str(&q.statement_text())` at `blind` and of `8 +
    /// encrypt_str(&format!("{:?}", q.params))` at `template`, no statement
    /// bytes in the clear, and one seal of that plaintext on the meter.
    fn fill_seals_the_rendered_key(
        c: &mut ResultCache,
        meter: &CryptoMeter,
        q: &Query,
        level: ExposureLevel,
    ) {
        let (plaintext, envelope) = match level {
            ExposureLevel::Blind => (q.statement_text(), 0),
            _ => (format!("{:?}", q.params), 8),
        };
        let key_bytes = envelope + Encryptor::for_app("test").encrypt_str(&plaintext).len();
        let (seals, sealed) = (meter.seals(), meter.seal_bytes());
        let r = result(2);
        let result_bytes = r.approx_size_bytes();
        assert!(c.store(q, r, level));
        let e = c.peek(q).unwrap();
        assert_eq!(e.stored_bytes, key_bytes + result_bytes + 8, "{level:?}");
        assert_eq!(e.inspection_bytes(), (0, result_bytes as u64), "{level:?}");
        assert_eq!(meter.seals(), seals + 1, "{level:?}");
        assert_eq!(
            meter.seal_bytes(),
            sealed + plaintext.len() as u64,
            "{level:?}"
        );
        c.check_invariants().unwrap();
    }

    /// Blind and template fills seal what rendering the statement afresh
    /// would, whether the query is bound to its bucket's template, to a
    /// structurally different one under the same id, or to the template
    /// that took the bucket over once it emptied.
    #[test]
    fn sealed_fills_store_and_meter_the_rendered_key() {
        let meter = CryptoMeter::new();
        let mut c = cache();
        c.meter_crypto(meter.clone());
        let bound = Arc::new(parse_query("SELECT a FROM t WHERE b = ? AND c = 'who?'").unwrap());
        let other = Arc::new(parse_query("SELECT a, c FROM t WHERE b = ?").unwrap());
        let instance = |t: &Arc<QueryTemplate>, v: Value| Query::bind(0, t.clone(), vec![v]);
        let values = [Value::Int(-7), Value::str("it's"), Value::real(2.5)];
        let sealed = [ExposureLevel::Blind, ExposureLevel::Template];
        for (i, v) in values.iter().enumerate() {
            let level = sealed[i % 2];
            fill_seals_the_rendered_key(
                &mut c,
                &meter,
                &instance(&bound, v.clone()).unwrap(),
                level,
            );
        }
        // A `view` member keeps `bound` the bucket's template; `other`
        // renders its own text.
        c.store(
            &instance(&bound, Value::Int(0)).unwrap(),
            result(1),
            ExposureLevel::View,
        );
        for (i, v) in values.iter().enumerate() {
            let level = sealed[i % 2];
            fill_seals_the_rendered_key(
                &mut c,
                &meter,
                &instance(&other, v.clone()).unwrap(),
                level,
            );
        }
        // Emptied, the bucket is `other`'s: its text is `other`'s too.
        c.invalidate_where(|_| true);
        c.store(
            &instance(&other, Value::Int(0)).unwrap(),
            result(1),
            ExposureLevel::Stmt,
        );
        for (i, v) in values.iter().enumerate() {
            let level = sealed[(i + 1) % 2];
            fill_seals_the_rendered_key(
                &mut c,
                &meter,
                &instance(&other, v.clone()).unwrap(),
                level,
            );
        }
    }

    /// A bucket holding no `template`-level-or-above entry — here one made
    /// by blind fills alone — costs a probed pass nothing: no rule, no
    /// index, no scanned, inspected or pruned pair beyond the blind list.
    #[test]
    fn a_bucket_without_members_costs_the_pass_nothing() {
        let mut c = cache();
        c.store(&query(0, 1), result(1), ExposureLevel::Blind);
        c.store(&query(0, 2), result(1), ExposureLevel::Blind);
        let (scanned, inspected, pruned) = probe(&mut c, &delete_b(Value::Int(1)));
        assert_eq!((scanned, inspected, pruned), (2, 2, vec![]));
        let bucket = &c.buckets[&0];
        assert!(bucket.rules.is_empty() && bucket.indexes.is_empty());
    }

    #[test]
    fn a_fill_is_stamped_with_its_stream_and_epoch() {
        let mut c = cache();
        let q = query(0, 1);
        assert!(
            c.store_with_evictions(&q, result(1), ExposureLevel::Blind, 2, 7)
                .stored
        );
        let e = c.peek(&q).unwrap();
        assert_eq!((e.stored_stream(), e.stored_epoch()), (2, 7));
        assert!(c.store(&q, result(1), ExposureLevel::View));
        let e = c.peek(&q).unwrap();
        assert_eq!((e.stored_stream(), e.stored_epoch()), (0, 0), "unstamped");
    }

    #[test]
    fn colliding_key_hashes_chain_and_unlink() {
        let mut c = cache();
        for p in 0..3 {
            c.store(&query(0, p), result(1), ExposureLevel::View);
        }
        // Force the three keys onto one chain, as a full hash collision
        // would, then exercise every unlink position.
        let ids: Vec<SlotId> = (0..3).collect();
        c.by_hash.clear();
        for (i, &id) in ids.iter().enumerate() {
            let slot = c.slots[id as usize].as_mut().unwrap();
            slot.key_hash = 7;
            slot.next_alike = ids.get(i + 1).copied();
        }
        c.by_hash.insert(7, 0);
        assert_eq!(c.find(7, 0, &[Value::Int(2)]), Some(2));
        assert!(c.detach(1).is_some(), "middle of the chain");
        assert_eq!(c.find(7, 0, &[Value::Int(2)]), Some(2));
        assert!(c.detach(0).is_some(), "head of the chain");
        assert_eq!(c.find(7, 0, &[Value::Int(2)]), Some(2));
        assert_eq!(c.find(7, 0, &[Value::Int(0)]), None);
        assert!(c.detach(2).is_some());
        assert!(c.by_hash.is_empty() && c.is_empty());
    }
}
