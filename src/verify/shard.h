#pragma once
// Shard-file IO: the JSONL row format sharded drivers exchange.
//
// A sharded run (fle_verify --shard i/m, fle_sweep --local --shard i/m, or
// one fabric window) executes only a window of every scenario's trials
// (ScenarioSpec::trial_offset/trial_count) and renders one JSONL row per
// scenario (a file line, or a fabric worker's kResult payload).  A row
// carries the window-cleared spec line (verify/fuzzer.h format_spec), the
// case index within the driver's plan, and the partial ScenarioResult as
// exact mergeable aggregates (outcome counts, integer totals, maxima).  The merge step (--merge) parses the
// rows, groups them by case, orders them by trial_offset and folds them
// with ScenarioResult::merge — reproducing the monolithic run bit for bit,
// because per-trial seeds depend only on the global trial index and every
// aggregate is an exact integer (DESIGN.md §6).
//
// Transcripts cross this boundary once each way.  Writing a row uses each
// transcript's cached FLET bytes and content key (sim/transcript.h) when it
// has them and encodes and hashes it once otherwise, writing the hex
// straight into the row.  Parsing a row decodes each blob (the decoded
// transcript keeps the blob as its cached bytes), hashes it exactly once
// to verify its store key, and keeps the verified key, so a report or a
// store built from parsed rows neither re-encodes nor re-hashes.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "api/scenario.h"

namespace fle::verify {

/// One scenario's partial result, as written by a sharded driver or a
/// fabric worker.
struct ShardRow {
  std::size_t case_index = 0;  ///< position in the driver's scenario plan
  std::string spec_line;       ///< format_spec() of the window-CLEARED spec
  ScenarioResult result{1};
};

/// The spec key written into shard rows: the shard window cleared and
/// executor-local fields (threads) normalized, so every shard — and the
/// merge step — formats the identical format_spec line for one scenario.
ScenarioSpec shard_key_spec(ScenarioSpec spec);

/// Renders one JSONL row (no trailing newline).  A transcript-recording row
/// carries its transcripts as hex blobs plus the derived store_keys column
/// (one content key per blob, sim/digest.h).
std::string format_shard_row(const ShardRow& row);

/// format_shard_row appended to `out`, from the row's parts: a report
/// writer neither builds a ShardRow nor copies the result.  The row carries
/// `wall_seconds` in place of result.wall_seconds (the canonical report
/// writes 0, its one nondeterministic field).
void append_shard_row(std::string& out, std::size_t case_index, std::string_view spec_line,
                      const ScenarioResult& result, double wall_seconds);

/// Parses a row previously produced by format_shard_row.  Throws
/// std::invalid_argument naming the offending key on malformed or
/// inconsistent input: non-digit integers, per-trial leaders outside
/// [0, n), a per-trial histogram that disagrees with counts and fails,
/// out-of-range n or max_rounds, non-canonical transcript blobs, and store
/// keys that do not hash the blobs they annotate.  Every parsed transcript
/// keeps its blob as cached bytes, and its verified store key when the row
/// has a store_keys column.
ShardRow parse_shard_row(const std::string& line);

/// A fully merged case: all shards of one scenario folded together.
struct MergedCase {
  std::string spec_line;
  ScenarioResult result{1};
};

/// Groups rows by case index, orders each group by trial_offset and folds
/// it by move with ScenarioResult::merge (which enforces compatibility and
/// contiguity), so transcripts keep their caches.  Throws std::invalid_argument if two rows of one case name
/// different specs, or if the shards do not tile the scenario.
std::map<std::size_t, MergedCase> merge_shard_rows(std::vector<ShardRow> rows);

}  // namespace fle::verify
