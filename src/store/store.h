#pragma once
// Content-addressed transcript store with O(diff) synchronization.
//
// PR 5 made ExecutionTranscript the system's evidence currency and the
// fabric ships it between hosts, but comparing two sweeps (two builds, two
// commits, two hosts) was still O(trials): every capture re-read even when
// nothing changed.  This store arranges a sweep's per-trial transcripts as
// a radix-16 hash tree keyed by global trial index — the SHAMap shape
// rippled uses for "rapid synchronization and compression of differences":
//
//   * each leaf is one trial's encoded transcript blob, keyed by its
//     SHA-256 content hash (sim/digest.h; the in-loop FNV fold stays the
//     cheap fingerprint, the strengthened digest is computed once at the
//     store boundary);
//   * each inner node at level k covers 16^k consecutive trials and hashes
//     the concatenation of its 16 child hashes (absent child = 32 zero
//     bytes), so any leaf change bubbles to the root;
//   * identical leaf blobs are stored once, with per-store dedup counters
//     kept in the meta record (unique_blobs() / trial_count() is the
//     measured share of distinct executions).
//
// sync_stores(a, b) compares roots first — equal roots prove equal stores
// without reading a single tree node — and otherwise descends only into
// subtrees whose hashes differ, reporting each divergent trial and an
// event-level diff of the first one.  Cost is O(differences · depth), not
// O(trials); StoreReader counts every tree record it reads so tests can
// assert exactly that.
//
// On-disk format (versioned, little-endian, LEB128 via the transcript
// codec):
//
//   header   'F','L','S','T', version byte (1)
//   leaf     'L', varint blob length, blob bytes (a FLET stream)
//   inner    'I', level byte, varint 16-bit presence bitmap, then per
//            present child in ascending slot order: 32-byte child hash,
//            varint absolute record offset, varint record length
//   meta     'M', varint scenario count, per scenario (varint spec length,
//            spec bytes, varint base trial, varint trial count), then
//            varint unique blob count, varint stored blob bytes, varint
//            logical blob bytes
//   footer   fixed 76 bytes: u64le meta offset, meta length, root offset,
//            root length, trial count; 32-byte root hash; 'F','L','S','E'
//
// Leaves are written at first use in trial order, inner nodes in
// post-order (children before parent, slots ascending), so two builds of
// the same captures — monolithic or merged from shards — are byte
// identical.

#include <array>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/digest.h"
#include "sim/transcript.h"

namespace fle {

/// One sweep scenario's slice of the store's global trial numbering.
struct StoreScenario {
  std::string spec;         ///< canonical spec line (shard key form)
  std::uint64_t base = 0;   ///< first global trial index
  std::uint64_t trials = 0; ///< trial count

  friend bool operator==(const StoreScenario&, const StoreScenario&) = default;
};

/// Locates one tree record (leaf or inner) and carries the hash its parent
/// claims for it; every read verifies the record against this claim.
struct StoreNodeRef {
  Digest256 hash;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

/// A decoded inner record: 16 slots, present children carry refs.
struct StoreInnerNode {
  int level = 0;
  std::array<std::optional<StoreNodeRef>, 16> children{};
};

/// Tree depth for a trial count: the smallest D >= 1 with 16^D >= trials.
int store_depth(std::uint64_t trial_count);

/// Builds a store from per-scenario transcript captures.  Scenarios are
/// appended in sweep order; their trials take consecutive global indices.
class StoreWriter {
 public:
  /// Adds one scenario's transcripts (kFull, trial order).
  void add_scenario(std::string spec, std::span<const ExecutionTranscript> transcripts);
  /// Same, from already-encoded FLET blobs (the fabric/shard path).
  void add_scenario_blobs(std::string spec,
                          std::span<const std::vector<std::uint8_t>> blobs);

  /// Assembles the full store image.  Throws std::logic_error when no
  /// trials were added — an empty store has no root to hash.
  [[nodiscard]] std::vector<std::uint8_t> finish() const;
  /// finish() straight to a file; throws std::runtime_error on I/O failure.
  void write_file(const std::string& path) const;

  [[nodiscard]] std::uint64_t trial_count() const { return leaf_hashes_.size(); }
  [[nodiscard]] std::uint64_t unique_blobs() const { return blobs_.size(); }

 private:
  std::vector<StoreScenario> scenarios_;
  std::vector<Digest256> leaf_hashes_;             ///< per global trial
  std::vector<std::vector<std::uint8_t>> blobs_;   ///< unique, first-use order
  std::map<Digest256, std::size_t> blob_index_;    ///< content key -> blobs_ index
  std::vector<std::size_t> leaf_blob_index_;       ///< per trial -> blobs_ index
  std::uint64_t logical_blob_bytes_ = 0;
};

/// Lazy, verifying reader.  Opening parses only header, footer and meta;
/// tree records are read on demand (one seek + read each, so a diff that
/// touches D nodes performs D record reads) and every record's hash is
/// checked against the parent's claim — tampering surfaces as
/// std::invalid_argument at the first touched record.
class StoreReader {
 public:
  static StoreReader open_file(const std::string& path);
  static StoreReader from_bytes(std::vector<std::uint8_t> bytes);

  [[nodiscard]] const Digest256& root_hash() const { return root_.hash; }
  [[nodiscard]] const StoreNodeRef& root() const { return root_; }
  [[nodiscard]] std::uint64_t trial_count() const { return trial_count_; }
  [[nodiscard]] int depth() const { return depth_; }
  [[nodiscard]] const std::vector<StoreScenario>& scenarios() const { return scenarios_; }
  [[nodiscard]] std::uint64_t unique_blobs() const { return unique_blobs_; }
  [[nodiscard]] std::uint64_t stored_blob_bytes() const { return stored_blob_bytes_; }
  [[nodiscard]] std::uint64_t logical_blob_bytes() const { return logical_blob_bytes_; }

  /// Reads + verifies one inner record.  Counts one node read.
  [[nodiscard]] StoreInnerNode read_inner(const StoreNodeRef& ref) const;
  /// Reads + verifies one leaf record, returning the blob.  Counts one
  /// node read.
  [[nodiscard]] std::vector<std::uint8_t> read_leaf(const StoreNodeRef& ref) const;

  /// Descends root-to-leaf for one global trial index.
  [[nodiscard]] std::vector<std::uint8_t> read_blob(std::uint64_t trial) const;
  [[nodiscard]] ExecutionTranscript read_transcript(std::uint64_t trial) const;

  /// Tree records (leaf + inner) read since construction / the last reset;
  /// the instrumentation behind the O(diff) acceptance test.
  [[nodiscard]] std::uint64_t nodes_read() const { return nodes_read_; }
  void reset_nodes_read() const { nodes_read_ = 0; }

 private:
  StoreReader() = default;
  void parse_trailer_and_meta();
  [[nodiscard]] std::vector<std::uint8_t> read_at(std::uint64_t offset,
                                                  std::uint64_t length) const;

  mutable std::ifstream file_;       ///< file-backed source (seek + read per record)
  std::vector<std::uint8_t> bytes_;  ///< in-memory source
  bool file_backed_ = false;
  std::uint64_t size_ = 0;

  StoreNodeRef root_;
  std::uint64_t trial_count_ = 0;
  int depth_ = 0;
  std::vector<StoreScenario> scenarios_;
  std::uint64_t unique_blobs_ = 0;
  std::uint64_t stored_blob_bytes_ = 0;
  std::uint64_t logical_blob_bytes_ = 0;
  mutable std::uint64_t nodes_read_ = 0;
};

/// The result of synchronizing two stores.
struct SyncReport {
  bool identical = false;
  /// Nonempty when the stores disagree before any tree descent: different
  /// trial counts or scenario lists.  No tree nodes are read in that case.
  std::string meta_divergence;
  /// Divergent global trial indices in ascending order, capped.
  std::vector<std::uint64_t> divergent_trials;
  bool truncated = false;  ///< hit the cap; more divergences may exist
  struct First {
    std::uint64_t trial = 0;
    std::size_t event_index = 0;
    std::string what;  ///< event-level diff, fle_verify --diff-transcripts style
  };
  std::optional<First> first;
  std::uint64_t nodes_read_a = 0;
  std::uint64_t nodes_read_b = 0;
};

/// Compares two stores by hash-tree descent.  Equal roots return
/// identical=true after zero node reads; otherwise only divergent subtrees
/// are descended and the first divergent trial gets an event-level diff.
SyncReport sync_stores(const StoreReader& a, const StoreReader& b,
                       std::size_t max_divergent = 16);

}  // namespace fle
