//! The shard/merge protocol: one campaign, split across machines.
//!
//! A campaign's canonical chunk range is the natural distribution unit: every
//! chunk reduces sequentially in canonical run order, and chunk partials merge
//! in canonical chunk order — so *any* contiguous window of chunks can execute
//! on its own machine, with its own worker count, and the global reduction is
//! reassembled later.  The protocol is coordination-free: shard sessions and
//! the merge exchange nothing but files in a shared directory.
//!
//! The pieces:
//!
//! * [`ShardPlan`] — splits the `[0, chunks)` canonical range into
//!   `shard_count` balanced, contiguous [`ShardSlice`]s;
//! * [`ShardManifest`] — what one shard session persists: the campaign's
//!   identity fingerprint, the slice bounds and the slice's **per-chunk
//!   partials** (every `f64` as its IEEE-754 bit pattern), written atomically
//!   with the same integrity frame a checkpoint manifest carries;
//! * [`validate_shard_set`] / [`merge_shards`] — refuse foreign, tampered,
//!   overlapping or gapped shard sets, then replay every shard's partials in
//!   global canonical chunk order through the exact left-fold a
//!   single-machine run performs;
//! * [`read_run_segment`] / [`read_trace_segment`] — validate a shard's JSONL
//!   run/trace segment against its global run range, so segments concatenate
//!   byte-exactly into the stream an uninterrupted run writes.
//!
//! ## Why per-chunk partials, not per-shard aggregates
//!
//! Floating-point merging is not associative: folding shard-level aggregates
//! together would regroup the reduction and drift in the last ulp, and the
//! exact-to-histogram quantile spill depends on how many samples the
//! *canonical prefix* has seen.  Persisting every chunk partial — the same
//! granularity the streaming runner merges at — lets `merge` reproduce the
//! single-machine floating-point operation sequence exactly, which is what
//! makes the merged [`CampaignReport`] **byte-identical** to an uninterrupted
//! run's (the property `tests/shard.rs` pins for arbitrary shard counts,
//! per-shard worker counts and merge orders).
//!
//! ## On-disk layout
//!
//! The `karyon-campaign` CLI writes, per shard `I` of `N`, into one shared
//! directory:
//!
//! ```text
//! <dir>/<name>.shard-I-of-N.manifest.json    # ShardManifest + integrity frame
//! <dir>/<name>.shard-I-of-N.jsonl            # run segment (global run indices)
//! <dir>/<name>.shard-I-of-N.trace.jsonl      # trace segment (optional)
//! ```
//!
//! A faulted shard session is simply rerun: the shard is the unit of retry
//! (there is no checkpointing inside a shard window), and the manifest is
//! only written after the window completes, so a crash can never leave a
//! half-true manifest behind.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::aggregate::ChunkPartial;
use crate::campaign::Campaign;
use crate::checkpoint::{
    integrity_frame, line_run_index, parse_point, render_point, write_framed_atomic,
};
use crate::json::{array, JsonValue, ObjectWriter};
use crate::report::CampaignReport;

/// Shard manifest format tag, checked on load.
const FORMAT: &str = "karyon-campaign-shard";
/// Shard manifest format version, checked on load.
const VERSION: u64 = 1;

/// One shard's contiguous window of the canonical chunk range:
/// `[start_chunk, end_chunk)`, as shard `index` of `shard_count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSlice {
    /// This shard's index, `0..shard_count`.
    pub index: usize,
    /// Total shards in the plan.
    pub shard_count: usize,
    /// First canonical chunk of the window (inclusive).
    pub start_chunk: usize,
    /// End of the window (exclusive).
    pub end_chunk: usize,
}

impl ShardSlice {
    /// Canonical chunks in this slice.
    pub fn chunk_count(&self) -> usize {
        self.end_chunk - self.start_chunk
    }

    /// True when the slice covers no chunks (legal when a plan has more
    /// shards than the campaign has chunks).
    pub fn is_empty(&self) -> bool {
        self.start_chunk == self.end_chunk
    }

    /// The global run range `[start, end)` this slice covers, for a campaign
    /// with the given chunk size and total run count — the exact run indices
    /// the shard's JSONL/trace segments must carry.
    pub fn run_range(&self, chunk_size: usize, total_runs: u64) -> (u64, u64) {
        let start = (self.start_chunk as u64 * chunk_size as u64).min(total_runs);
        let end = (self.end_chunk as u64 * chunk_size as u64).min(total_runs);
        (start, end)
    }
}

/// A balanced, contiguous split of a campaign's canonical chunk range into
/// shard windows.
///
/// Every machine that derives the plan from the same campaign definition and
/// shard count computes the same slices — no coordination needed.  Chunks are
/// dealt contiguously (shard boundaries never interleave) because the merge
/// replays chunks in global canonical order: contiguity is what lets each
/// shard's JSONL/trace segment concatenate byte-exactly.  The first
/// `chunks % shard_count` shards carry one extra chunk; when the plan has
/// more shards than chunks, the tail slices are legally empty.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    chunks: usize,
    slices: Vec<ShardSlice>,
}

impl ShardPlan {
    /// Splits `chunks` canonical chunks into `shard_count` contiguous slices.
    ///
    /// # Panics
    /// Panics if `shard_count` is zero.
    pub fn new(chunks: usize, shard_count: usize) -> Self {
        assert!(shard_count > 0, "a shard plan needs at least one shard");
        let base = chunks / shard_count;
        let extra = chunks % shard_count;
        let mut slices = Vec::with_capacity(shard_count);
        let mut start = 0usize;
        for index in 0..shard_count {
            let len = base + usize::from(index < extra);
            slices.push(ShardSlice {
                index,
                shard_count,
                start_chunk: start,
                end_chunk: start + len,
            });
            start += len;
        }
        debug_assert_eq!(start, chunks);
        ShardPlan { chunks, slices }
    }

    /// The plan for `campaign`'s canonical chunk range.
    ///
    /// # Panics
    /// Panics if `shard_count` is zero.
    pub fn for_campaign(campaign: &Campaign, shard_count: usize) -> Self {
        ShardPlan::new(campaign.canonical_chunks(), shard_count)
    }

    /// Total canonical chunks the plan covers.
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.slices.len()
    }

    /// The slices, in shard (and canonical chunk) order.
    pub fn slices(&self) -> &[ShardSlice] {
        &self.slices
    }

    /// Shard `index`'s slice.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn slice(&self, index: usize) -> ShardSlice {
        self.slices[index]
    }
}

/// What one shard session persists: the campaign identity it executed a
/// window of, the window bounds, and the window's per-chunk aggregation
/// partials in canonical chunk order.
///
/// Serialised like a checkpoint manifest — single-line JSON with every `f64`
/// as its IEEE-754 bit pattern, followed by an
/// [`integrity_frame`] line — and written atomically,
/// so [`ShardManifest::load`] either sees a manifest exactly as a completed
/// shard session wrote it, or refuses with a recovery hint.
#[derive(Debug, Clone)]
pub struct ShardManifest {
    /// The campaign name (informational; identity is the fingerprint).
    pub campaign: String,
    /// The campaign seed.
    pub seed: u64,
    /// Fingerprint of the campaign definition ([`Campaign::fingerprint`]);
    /// [`validate_shard_set`] refuses a mismatch.
    pub fingerprint: u64,
    /// The canonical chunk size the partials were reduced with.
    pub chunk_size: usize,
    /// Total runs of the full campaign.
    pub total_runs: u64,
    /// This shard's index, `0..shard_count`.
    pub shard_index: usize,
    /// Total shards in the plan this manifest belongs to.
    pub shard_count: usize,
    /// First canonical chunk of the shard's window (inclusive).
    pub start_chunk: usize,
    /// End of the window (exclusive).
    pub end_chunk: usize,
    /// The window's per-chunk partials, in canonical chunk order.
    chunks: Vec<ChunkPartial>,
}

impl ShardManifest {
    /// Builds the manifest of one completed shard session from the campaign
    /// it executed, the slice it covered and the per-chunk partials
    /// [`Campaign::run_shard`] returned.
    ///
    /// Errors if the partial count does not match the slice's chunk count —
    /// the caller handed over an incomplete window.
    pub fn new(
        campaign: &Campaign,
        slice: ShardSlice,
        chunks: Vec<ChunkPartial>,
    ) -> Result<ShardManifest, String> {
        if chunks.len() != slice.chunk_count() {
            return Err(format!(
                "shard {} of {} covers chunks [{}, {}) but {} chunk partials were supplied",
                slice.index,
                slice.shard_count,
                slice.start_chunk,
                slice.end_chunk,
                chunks.len()
            ));
        }
        Ok(ShardManifest {
            campaign: campaign.name().to_string(),
            seed: campaign.seed(),
            fingerprint: campaign.fingerprint(),
            chunk_size: campaign.chunk_size(),
            total_runs: campaign.run_count(),
            shard_index: slice.index,
            shard_count: slice.shard_count,
            start_chunk: slice.start_chunk,
            end_chunk: slice.end_chunk,
            chunks,
        })
    }

    /// The slice this manifest covers.
    pub fn slice(&self) -> ShardSlice {
        ShardSlice {
            index: self.shard_index,
            shard_count: self.shard_count,
            start_chunk: self.start_chunk,
            end_chunk: self.end_chunk,
        }
    }

    /// The window's per-chunk partials, in canonical chunk order.
    pub fn chunks(&self) -> &[ChunkPartial] {
        &self.chunks
    }

    /// The global run range `[start, end)` this shard's JSONL/trace segments
    /// must carry.
    pub fn run_range(&self) -> (u64, u64) {
        self.slice().run_range(self.chunk_size, self.total_runs)
    }

    /// Serialises the manifest payload (without the integrity frame).
    pub fn render(&self) -> String {
        let chunks: Vec<String> = self
            .chunks
            .iter()
            .enumerate()
            .map(|(offset, partial)| render_chunk(self.start_chunk + offset, partial))
            .collect();
        let mut o = ObjectWriter::new();
        o.string("format", FORMAT)
            .u64("version", VERSION)
            .string("campaign", &self.campaign)
            .u64("seed", self.seed)
            .u64("fingerprint", self.fingerprint)
            .u64("chunk_size", self.chunk_size as u64)
            .u64("total_runs", self.total_runs)
            .u64("shard_index", self.shard_index as u64)
            .u64("shard_count", self.shard_count as u64)
            .u64("start_chunk", self.start_chunk as u64)
            .u64("end_chunk", self.end_chunk as u64)
            .raw("chunks", &array(&chunks));
        o.finish()
    }

    /// Parses a manifest from its JSON payload text.
    pub fn parse(text: &str) -> Result<ShardManifest, String> {
        let doc = JsonValue::parse(text)?;
        let str_field = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field {key:?}"))
        };
        let u64_field = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing or non-integer field {key:?}"))
        };
        if str_field("format")? != FORMAT {
            return Err(format!("not a {FORMAT} file"));
        }
        if u64_field("version")? != VERSION {
            return Err(format!(
                "unsupported shard manifest version {} (this build reads {VERSION})",
                u64_field("version")?
            ));
        }
        let start_chunk = u64_field("start_chunk")? as usize;
        let end_chunk = u64_field("end_chunk")? as usize;
        if start_chunk > end_chunk {
            return Err(format!("inverted shard window [{start_chunk}, {end_chunk})"));
        }
        let chunk_values = doc
            .get("chunks")
            .and_then(JsonValue::as_array)
            .ok_or("missing or non-array field \"chunks\"")?;
        if chunk_values.len() != end_chunk - start_chunk {
            return Err(format!(
                "shard window [{start_chunk}, {end_chunk}) must carry {} chunk partials, \
                 found {}",
                end_chunk - start_chunk,
                chunk_values.len()
            ));
        }
        let chunks = chunk_values
            .iter()
            .enumerate()
            .map(|(offset, value)| parse_chunk(value, start_chunk + offset))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardManifest {
            campaign: str_field("campaign")?,
            seed: u64_field("seed")?,
            fingerprint: u64_field("fingerprint")?,
            chunk_size: u64_field("chunk_size")? as usize,
            total_runs: u64_field("total_runs")?,
            shard_index: u64_field("shard_index")? as usize,
            shard_count: u64_field("shard_count")? as usize,
            start_chunk,
            end_chunk,
            chunks,
        })
    }

    /// Writes the manifest atomically (temp file + fsync + rename), payload
    /// line plus integrity frame line — the same discipline checkpoint
    /// manifests use, so a crash can never leave a torn manifest behind.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        write_framed_atomic(path, &self.render(), "shard manifest")
    }

    /// Loads a manifest file, verifying its integrity frame before parsing.
    ///
    /// The frame is byte-compared against the one the payload implies, which
    /// catches truncation, bit rot, splicing and manual edits in one check.
    /// Corrupt manifests are refused with a recovery hint; the file on disk
    /// is never touched.
    pub fn load(path: &Path) -> Result<ShardManifest, String> {
        let text = fs::read(path)
            .map_err(|e| format!("cannot read shard manifest {path:?}: {e}"))
            .and_then(|bytes| {
                String::from_utf8(bytes).map_err(|_| {
                    refusal(path, "the file is not valid UTF-8 — it is corrupt or not a manifest")
                })
            })?;
        let (payload, rest) = text.split_once('\n').ok_or_else(|| {
            refusal(
                path,
                "no newline-terminated manifest payload — the file was truncated mid-write",
            )
        })?;
        let frame_line = rest.lines().next().unwrap_or("").trim();
        if frame_line != integrity_frame(payload) {
            return Err(refusal(
                path,
                "the integrity frame does not match the payload — the manifest was \
                 truncated, spliced or edited after it was written",
            ));
        }
        Self::parse(payload).map_err(|e| refusal(path, &e))
    }
}

/// Renders one canonical chunk's partial: the global chunk index plus each
/// touched point's aggregate (bit-exact, via the checkpoint representation).
fn render_chunk(global_chunk: usize, partial: &ChunkPartial) -> String {
    let mut points = ObjectWriter::new();
    for (index, point) in &partial.points {
        points.raw(&index.to_string(), &render_point(point));
    }
    let mut o = ObjectWriter::new();
    o.u64("chunk", global_chunk as u64).raw("points", &points.finish());
    o.finish()
}

/// Parses one chunk partial, checking it sits at the global chunk index its
/// array position implies.
fn parse_chunk(value: &JsonValue, expected_chunk: usize) -> Result<ChunkPartial, String> {
    let chunk = value
        .get("chunk")
        .and_then(JsonValue::as_u64)
        .ok_or("chunk partial is missing \"chunk\"")?;
    if chunk != expected_chunk as u64 {
        return Err(format!(
            "chunk partial claims global chunk {chunk} but sits at position {expected_chunk} \
             of the shard window"
        ));
    }
    let members = value
        .get("points")
        .and_then(JsonValue::as_object)
        .ok_or("chunk partial is missing \"points\"")?;
    let mut points = BTreeMap::new();
    for (key, point) in members {
        let index: usize = key
            .parse()
            .map_err(|_| format!("chunk partial has a non-integer point key {key:?}"))?;
        points.insert(index, parse_point(point).map_err(|e| format!("point {index}: {e}"))?);
    }
    Ok(ChunkPartial { points })
}

/// A refusal message for a corrupt shard manifest, with the recovery hint
/// attached: unlike a checkpoint, a shard is the unit of retry, so the fix is
/// always to rerun that one shard session.
fn refusal(path: &Path, why: &str) -> String {
    format!(
        "shard manifest {path:?}: {why}; refusing to merge it — recovery: rerun that shard \
         session (`karyon-campaign shard`) to regenerate the manifest and its JSONL/trace \
         segments, then merge again"
    )
}

/// Checks that `manifests` form exactly the shard set of `campaign`: every
/// manifest carries the campaign's fingerprint, chunk size and run count, the
/// declared shard counts agree with the number of manifests, shard indices
/// are distinct, and the windows tile the canonical chunk range `[0, chunks)`
/// with no overlap and no gap.
///
/// The manifests may arrive in any order (merge sorts them canonically); a
/// refusal names the first offending shard.  This is the validation behind
/// the `karyon-campaign merge` subcommand's shard-set exit code.
pub fn validate_shard_set(campaign: &Campaign, manifests: &[ShardManifest]) -> Result<(), String> {
    if manifests.is_empty() {
        return Err("no shard manifests to merge".to_string());
    }
    let fingerprint = campaign.fingerprint();
    let chunks = campaign.canonical_chunks();
    for m in manifests {
        if m.fingerprint != fingerprint {
            return Err(format!(
                "shard {} fingerprint {:#018x} does not match campaign {:?} ({fingerprint:#018x}) \
                 — the spec (name, seed, chunk size, entries or grids) differs from the one the \
                 shard executed",
                m.shard_index,
                m.fingerprint,
                campaign.name()
            ));
        }
        if m.chunk_size != campaign.chunk_size() {
            return Err(format!(
                "shard {} was reduced with chunk size {} but campaign {:?} uses {} — merging \
                 would regroup the floating-point reduction",
                m.shard_index,
                m.chunk_size,
                campaign.name(),
                campaign.chunk_size()
            ));
        }
        if m.total_runs != campaign.run_count() {
            return Err(format!(
                "shard {} covers a campaign of {} runs but {:?} expands to {}",
                m.shard_index,
                m.total_runs,
                campaign.name(),
                campaign.run_count()
            ));
        }
        if m.shard_count != manifests.len() {
            return Err(format!(
                "shard {} declares a plan of {} shards but {} manifests were supplied — the \
                 set is incomplete or mixes plans",
                m.shard_index,
                m.shard_count,
                manifests.len()
            ));
        }
        if m.chunks.len() != m.end_chunk - m.start_chunk {
            return Err(format!(
                "shard {} window [{}, {}) carries {} chunk partials",
                m.shard_index,
                m.start_chunk,
                m.end_chunk,
                m.chunks.len()
            ));
        }
    }
    let mut seen = vec![false; manifests.len()];
    for m in manifests {
        if m.shard_index >= manifests.len() || seen[m.shard_index] {
            return Err(format!(
                "duplicate or out-of-range shard index {} in a {}-shard set",
                m.shard_index,
                manifests.len()
            ));
        }
        seen[m.shard_index] = true;
    }
    let mut ordered: Vec<&ShardManifest> = manifests.iter().collect();
    ordered.sort_by_key(|m| (m.start_chunk, m.end_chunk));
    let mut frontier = 0usize;
    for m in &ordered {
        if m.start_chunk < frontier {
            return Err(format!(
                "shard {} window [{}, {}) overlaps chunks already covered up to {frontier} — \
                 merging would double-count runs",
                m.shard_index, m.start_chunk, m.end_chunk
            ));
        }
        if m.start_chunk > frontier {
            return Err(format!(
                "gap in shard coverage: chunks [{frontier}, {}) are covered by no shard",
                m.start_chunk
            ));
        }
        frontier = m.end_chunk;
    }
    if frontier != chunks {
        return Err(format!(
            "gap in shard coverage: chunks [{frontier}, {chunks}) are covered by no shard"
        ));
    }
    Ok(())
}

/// Merges a complete shard set into the campaign's final report, replaying
/// every shard's per-chunk partials in **global canonical chunk order**
/// through the same left-fold a single-machine run performs — which is why
/// the result is byte-identical to an uninterrupted run's, whatever the
/// shard count, per-shard worker counts or the order the manifests arrive
/// in.
///
/// Refuses invalid sets (see [`validate_shard_set`]) before touching any
/// aggregation state.
pub fn merge_shards(
    campaign: &Campaign,
    mut manifests: Vec<ShardManifest>,
) -> Result<CampaignReport, String> {
    validate_shard_set(campaign, &manifests)?;
    manifests.sort_by_key(|m| m.start_chunk);
    campaign.finish_from_chunks(manifests.into_iter().flat_map(|m| m.chunks))
}

/// Reads and validates one shard's JSONL **run segment**: exactly
/// `end_run - start_run` newline-terminated lines whose canonical
/// `{"run":N,` prefixes count `start_run..end_run` in order, with no torn
/// tail.  Returns the raw bytes, ready to concatenate (in shard order) into
/// the stream an uninterrupted run writes.
///
/// Strict by design: a shard session that completed wrote exactly its
/// window's runs, so anything else means the segment belongs to a different
/// shard/plan or a faulted session's leftovers were never rerun.
pub fn read_run_segment(path: &Path, start_run: u64, end_run: u64) -> Result<Vec<u8>, String> {
    let bytes =
        fs::read(path).map_err(|e| format!("cannot read shard run segment {path:?}: {e}"))?;
    let mut expected = start_run;
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(nl) = bytes[pos..].iter().position(|b| *b == b'\n') else {
            return Err(format!(
                "shard run segment {path:?} ends in a torn line — the shard session did not \
                 complete; rerun it"
            ));
        };
        let line = &bytes[pos..pos + nl];
        let run = line_run_index(line).ok_or_else(|| {
            format!("shard run segment {path:?} line does not carry a {{\"run\":N,...}} record")
        })?;
        if expected >= end_run || run != expected {
            return Err(format!(
                "shard run segment {path:?} carries run {run} where global run {expected} of \
                 window [{start_run}, {end_run}) belongs — the segment does not match the \
                 shard's window"
            ));
        }
        expected += 1;
        pos += nl + 1;
    }
    if expected != end_run {
        return Err(format!(
            "shard run segment {path:?} holds runs [{start_run}, {expected}) but the shard \
             window covers [{start_run}, {end_run}) — the segment is incomplete"
        ));
    }
    Ok(bytes)
}

/// Reads and validates one shard's JSONL **trace segment**: every line's
/// `{"run":N,` prefix must fall inside the shard's global run range
/// `[start_run, end_run)` and run indices must be non-decreasing (a run
/// emits any number of trace lines, including none).  A missing file is an
/// empty segment — tracing is an optional side artifact, exactly like
/// [`truncate_trace_jsonl`](crate::truncate_trace_jsonl) treats it — but a
/// torn tail or an out-of-range run is refused.
pub fn read_trace_segment(path: &Path, start_run: u64, end_run: u64) -> Result<Vec<u8>, String> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read shard trace segment {path:?}: {e}")),
    };
    let mut floor = start_run;
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(nl) = bytes[pos..].iter().position(|b| *b == b'\n') else {
            return Err(format!(
                "shard trace segment {path:?} ends in a torn line — the shard session did not \
                 complete; rerun it"
            ));
        };
        let line = &bytes[pos..pos + nl];
        let run = line_run_index(line).ok_or_else(|| {
            format!("shard trace segment {path:?} line does not carry a {{\"run\":N,...}} record")
        })?;
        if run < floor || run >= end_run {
            return Err(format!(
                "shard trace segment {path:?} carries run {run} outside (or out of order \
                 within) the shard's window [{start_run}, {end_run})"
            ));
        }
        floor = run;
        pos += nl + 1;
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignEntry;
    use crate::grid::ParamGrid;
    use crate::registry::ScenarioRegistry;
    use crate::scenario::{RunRecord, Scenario};
    use crate::spec::ScenarioSpec;
    use std::path::PathBuf;
    use std::sync::Arc;

    struct Echo;

    impl Scenario for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn run(&self, spec: &ScenarioSpec) -> RunRecord {
            let mut record = RunRecord::new();
            record.set("seed_lo", (spec.seed % 1_000) as f64);
            record.set("x", spec.f64_or("x", 0.0) * 2.0);
            record
        }
    }

    fn echo_registry() -> ScenarioRegistry {
        let mut registry = ScenarioRegistry::new();
        registry.register(Arc::new(Echo));
        registry
    }

    fn echo_campaign() -> Campaign {
        Campaign::new("sharded", 77).with_chunk_size(3).entry(
            CampaignEntry::new("echo")
                .grid(ParamGrid::new().axis("x", [0.25, 1.75]))
                .replications(8),
        ) // 16 runs → 6 chunks (ragged tail of 1)
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("karyon-shard-{}-{name}", std::process::id()))
    }

    #[test]
    fn plan_splits_the_chunk_range_contiguously_and_balanced() {
        let plan = ShardPlan::new(7, 3);
        let bounds: Vec<(usize, usize)> =
            plan.slices().iter().map(|s| (s.start_chunk, s.end_chunk)).collect();
        assert_eq!(bounds, [(0, 3), (3, 5), (5, 7)], "first shards carry the remainder");
        assert_eq!(plan.chunks(), 7);
        assert_eq!(plan.shard_count(), 3);

        // More shards than chunks: the tail slices are legally empty.
        let plan = ShardPlan::new(2, 5);
        let lens: Vec<usize> = plan.slices().iter().map(ShardSlice::chunk_count).collect();
        assert_eq!(lens, [1, 1, 0, 0, 0]);
        assert!(plan.slice(4).is_empty());

        // Run ranges cap at the campaign's total runs (ragged final chunk).
        let slice = ShardSlice { index: 1, shard_count: 2, start_chunk: 3, end_chunk: 6 };
        assert_eq!(slice.run_range(3, 16), (9, 16));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shard_plans_are_rejected() {
        let _ = ShardPlan::new(4, 0);
    }

    #[test]
    fn shard_manifests_round_trip_and_merge_to_the_reference_report() {
        let registry = echo_registry();
        let campaign = echo_campaign();
        let reference = campaign.run(&registry).unwrap();
        let plan = ShardPlan::for_campaign(&campaign, 3);

        let mut manifests = Vec::new();
        for slice in plan.slices() {
            // Heterogeneous worker counts per shard: determinism must hold.
            let shard_campaign = campaign.clone().with_threads(slice.index + 1);
            let (partials, _) = shard_campaign
                .run_shard(&registry, slice.start_chunk, slice.end_chunk, None)
                .unwrap();
            let manifest = ShardManifest::new(&campaign, *slice, partials).unwrap();

            // Disk round trip: write, load, and the reload re-renders
            // byte-identically.
            let path = temp_path(&format!("rt-{}.json", slice.index));
            manifest.write(&path).unwrap();
            let loaded = ShardManifest::load(&path).unwrap();
            assert_eq!(loaded.render(), manifest.render());
            assert_eq!(loaded.run_range(), slice.run_range(3, 16));
            std::fs::remove_file(&path).ok();
            manifests.push(loaded);
        }

        // Merge order must not matter: present the manifests reversed.
        manifests.reverse();
        let merged = merge_shards(&campaign, manifests).unwrap();
        assert_eq!(merged, reference);
        assert_eq!(merged.to_json(), reference.to_json());
    }

    #[test]
    fn merge_refuses_mismatched_and_mistiled_shard_sets() {
        let registry = echo_registry();
        let campaign = echo_campaign();
        let chunks = campaign.canonical_chunks();
        let window = |slice: ShardSlice| {
            let (partials, _) =
                campaign.run_shard(&registry, slice.start_chunk, slice.end_chunk, None).unwrap();
            ShardManifest::new(&campaign, slice, partials).unwrap()
        };
        let pair = |split: usize, count: usize| {
            vec![
                window(ShardSlice {
                    index: 0,
                    shard_count: count,
                    start_chunk: 0,
                    end_chunk: split,
                }),
                window(ShardSlice {
                    index: 1,
                    shard_count: count,
                    start_chunk: split,
                    end_chunk: chunks,
                }),
            ]
        };

        // A well-formed two-shard set merges.
        assert!(merge_shards(&campaign, pair(2, 2)).is_ok());

        // Empty set.
        assert!(merge_shards(&campaign, vec![]).unwrap_err().contains("no shard manifests"));

        // Foreign fingerprint: the same shape under a different seed.
        let other = Campaign::new("sharded", 78).with_chunk_size(3).entry(
            CampaignEntry::new("echo")
                .grid(ParamGrid::new().axis("x", [0.25, 1.75]))
                .replications(8),
        );
        let err = merge_shards(&other, pair(2, 2)).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");

        // Tampered chunk size (fingerprint faked to match): refused before
        // it can regroup the reduction.
        let mut tampered = pair(2, 2);
        tampered[0].chunk_size = 4;
        let err = validate_shard_set(&campaign, &tampered).unwrap_err();
        assert!(err.contains("chunk size 4"), "{err}");

        // Tampered run count.
        let mut tampered = pair(2, 2);
        tampered[1].total_runs = 99;
        let err = validate_shard_set(&campaign, &tampered).unwrap_err();
        assert!(err.contains("99 runs"), "{err}");

        // Wrong declared shard count for the set size.
        let err = merge_shards(&campaign, pair(2, 3)).unwrap_err();
        assert!(err.contains("3 shards but 2 manifests"), "{err}");

        // Duplicate shard index.
        let mut dup = pair(2, 2);
        dup[1].shard_index = 0;
        let err = validate_shard_set(&campaign, &dup).unwrap_err();
        assert!(err.contains("duplicate or out-of-range"), "{err}");

        // Overlap: [0, 3) ∪ [2, chunks).
        let overlap = vec![
            window(ShardSlice { index: 0, shard_count: 2, start_chunk: 0, end_chunk: 3 }),
            window(ShardSlice { index: 1, shard_count: 2, start_chunk: 2, end_chunk: chunks }),
        ];
        let err = merge_shards(&campaign, overlap).unwrap_err();
        assert!(err.contains("overlaps"), "{err}");

        // Gap in the middle: [0, 2) ∪ [3, chunks).
        let gapped = vec![
            window(ShardSlice { index: 0, shard_count: 2, start_chunk: 0, end_chunk: 2 }),
            window(ShardSlice { index: 1, shard_count: 2, start_chunk: 3, end_chunk: chunks }),
        ];
        let err = merge_shards(&campaign, gapped).unwrap_err();
        assert!(err.contains("gap in shard coverage"), "{err}");

        // Gap at the tail: a single shard that stops short.
        let short =
            vec![window(ShardSlice { index: 0, shard_count: 1, start_chunk: 0, end_chunk: 4 })];
        let err = merge_shards(&campaign, short).unwrap_err();
        assert!(err.contains("gap in shard coverage"), "{err}");
    }

    #[test]
    fn shard_manifest_load_refuses_corruption_with_a_recovery_hint() {
        let registry = echo_registry();
        let campaign = echo_campaign();
        let slice = ShardPlan::for_campaign(&campaign, 2).slice(0);
        let (partials, _) =
            campaign.run_shard(&registry, slice.start_chunk, slice.end_chunk, None).unwrap();
        let manifest = ShardManifest::new(&campaign, slice, partials).unwrap();
        let path = temp_path("corrupt.json");
        manifest.write(&path).unwrap();
        let pristine = fs::read(&path).unwrap();

        let assert_refused = |bytes: &[u8]| {
            fs::write(&path, bytes).unwrap();
            let err = ShardManifest::load(&path).unwrap_err();
            assert!(err.contains("recovery:"), "refusals carry a recovery hint: {err}");
            assert!(err.contains("rerun"), "the hint names the fix: {err}");
        };
        // Truncated mid-payload, truncated at the frame, one flipped byte.
        assert_refused(&pristine[..pristine.len() / 2]);
        assert_refused(&pristine[..manifest.render().len() + 1]);
        let mut flipped = pristine.clone();
        flipped[12] ^= 0x01;
        assert_refused(&flipped);

        // A wrong-format payload with a *valid* frame is refused by the
        // parser, not the frame check.
        let foreign = "{\"format\":\"other\"}";
        fs::write(&path, format!("{foreign}\n{}\n", integrity_frame(foreign))).unwrap();
        let err = ShardManifest::load(&path).unwrap_err();
        assert!(err.contains("not a karyon-campaign-shard file"), "{err}");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn run_and_trace_segments_validate_their_global_ranges() {
        let path = temp_path("segment.jsonl");

        // A pristine run segment for global runs [5, 8).
        fs::write(&path, "{\"run\":5,\"x\":1}\n{\"run\":6,\"x\":2}\n{\"run\":7,\"x\":3}\n")
            .unwrap();
        let bytes = read_run_segment(&path, 5, 8).unwrap();
        assert_eq!(bytes, fs::read(&path).unwrap());

        // Wrong window, short segment, extra line, torn tail — all refused.
        assert!(read_run_segment(&path, 4, 7).unwrap_err().contains("carries run 5"));
        assert!(read_run_segment(&path, 5, 9).unwrap_err().contains("incomplete"));
        assert!(read_run_segment(&path, 5, 7).unwrap_err().contains("carries run 7"));
        fs::write(&path, "{\"run\":5,\"x\":1}\n{\"run\":6,\"x\"").unwrap();
        assert!(read_run_segment(&path, 5, 7).unwrap_err().contains("torn line"));
        fs::write(&path, "not a record\n").unwrap();
        assert!(read_run_segment(&path, 0, 1).unwrap_err().contains("{\"run\":N,"));

        // Trace segments: any number of lines per run, non-decreasing, all
        // inside the window.
        fs::write(&path, "{\"run\":5,\"a\":1}\n{\"run\":5,\"b\":2}\n{\"run\":7,\"c\":3}\n")
            .unwrap();
        let bytes = read_trace_segment(&path, 5, 8).unwrap();
        assert_eq!(bytes, fs::read(&path).unwrap());
        assert!(read_trace_segment(&path, 6, 8).unwrap_err().contains("outside"));
        fs::write(&path, "{\"run\":6,\"a\":1}\n{\"run\":5,\"b\":2}\n").unwrap();
        assert!(read_trace_segment(&path, 5, 8).unwrap_err().contains("outside"));
        fs::remove_file(&path).ok();

        // A missing trace segment is an empty segment (tracing is optional);
        // a missing run segment is an error.
        assert_eq!(read_trace_segment(&path, 0, 9).unwrap(), Vec::<u8>::new());
        assert!(read_run_segment(&path, 0, 9).unwrap_err().contains("cannot read"));
    }
}
