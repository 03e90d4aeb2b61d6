#pragma once
// The fabric wire protocol: length-prefixed frames between the fle_sweep
// driver and fle_worker processes (DESIGN.md §8).
//
// Everything on the wire is built from the two encodings the repo already
// has: the §7 LEB128 varint codec (sim/transcript.h leb128_put/leb128_get)
// frames and encodes every integer field, and the shard-row JSONL format
// (verify/shard.h) is the result payload — a worker's answer for a trial
// window is literally the shard row a sharded run would have written,
// transcripts included as hex, so the driver parses and verifies network
// results with the same parse_shard_row the --shard/--merge flows use.
//
// Frame layout: one varint payload length, then the payload; payload byte 0
// is the MessageKind, the rest is kind-specific (varints, and strings as
// varint length + raw bytes).  A frame is the atomic unit — a receiver
// either has all of it or keeps buffering — and any malformed payload is a
// protocol error that drops the connection (the peer's windows are
// re-issued; see driver.h).
//
// Handshake (versioned, digest-guarded): the worker opens with kHello
// carrying the wire version and its build digest — a fold over the wire
// version and every registered protocol/deviation name — and the driver
// rejects mismatched binaries at connect time with kError.  The driver's
// kWelcome carries the same pair back plus the sweep's canonical spec
// lines (verify/fuzzer.h format_spec) and their fold, so a worker verifies
// it decoded exactly the sweep the driver is running before any trial
// executes.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fle::fabric {

/// Bumped on any frame-layout or semantics change; both sides reject a
/// mismatch at handshake (version policy: exact match, no ranges — the
/// driver and workers of one sweep are expected to be one build).
/// v3: every window, transcript-recording or not, answers with one kResult
/// carrying the plain shard row (v2's leaf offer / want / dedup-result
/// round trip is gone, and kinds 9-11 are unknown again).
inline constexpr std::uint64_t kWireVersion = 3;

/// Frames larger than this are a protocol error before any allocation
/// happens (a corrupt length prefix must not become an OOM).
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

enum class MessageKind : std::uint8_t {
  kHello = 1,      ///< worker → driver: version, build digest, label
  kWelcome = 2,    ///< driver → worker: version, build digest, sweep specs
  kAssign = 3,     ///< driver → worker: one trial window to execute
  kResult = 4,     ///< worker → driver: shard-row JSONL for one window
  kHeartbeat = 5,  ///< either way: liveness ping/echo, by sequence number
  kDrain = 6,      ///< driver → worker: no more work, finish and say kBye
  kBye = 7,        ///< either way: clean close
  kError = 8,      ///< either way: fatal, human-readable reason, then close
};

const char* to_string(MessageKind kind);

struct Hello {
  std::uint64_t version = kWireVersion;
  std::uint64_t build = 0;  ///< build_digest() of the worker binary
  std::string label;        ///< display name for driver-side diagnostics
};

struct Welcome {
  std::uint64_t version = kWireVersion;
  std::uint64_t build = 0;        ///< build_digest() of the driver binary
  std::uint64_t spec_digest = 0;  ///< sweep_digest(spec_lines)
  /// format_spec(shard_key_spec(scenario)) per sweep scenario, in order;
  /// kAssign windows name scenarios by index into this list.
  std::vector<std::string> spec_lines;
};

struct Assign {
  std::uint64_t window = 0;        ///< driver-side window id (echoed in kResult)
  std::uint64_t scenario = 0;      ///< index into Welcome::spec_lines
  std::uint64_t trial_offset = 0;  ///< global index of the window's first trial
  std::uint64_t trial_count = 0;   ///< trials in the window (> 0)
};

struct ResultMsg {
  std::uint64_t window = 0;
  std::string row;  ///< verify/shard.h format_shard_row of the window result
};

struct Heartbeat {
  std::uint64_t seq = 0;
};

struct ErrorMsg {
  std::string message;
};

/// One decoded frame: the kind plus its payload (only the member matching
/// `kind` is meaningful; kDrain and kBye have no payload).
struct Frame {
  MessageKind kind = MessageKind::kBye;
  Hello hello;
  Welcome welcome;
  Assign assign;
  ResultMsg result;
  Heartbeat heartbeat;
  ErrorMsg error;
};

// Complete frames (length prefix included), ready to write to a socket.
std::vector<std::uint8_t> encode_frame(const Hello& message);
std::vector<std::uint8_t> encode_frame(const Welcome& message);
std::vector<std::uint8_t> encode_frame(const Assign& message);
std::vector<std::uint8_t> encode_frame(const ResultMsg& message);
std::vector<std::uint8_t> encode_frame(const Heartbeat& message);
std::vector<std::uint8_t> encode_frame(const ErrorMsg& message);
std::vector<std::uint8_t> encode_frame(MessageKind bare);  ///< kDrain / kBye

/// Parses one frame from the front of `buffer`.  Returns nullopt when the
/// buffer holds only a partial frame (read more bytes and retry); on
/// success `consumed` is how many bytes the frame occupied.  Throws
/// std::invalid_argument naming the offending field on malformed input —
/// oversized length prefix, unknown kind, truncated or trailing payload.
struct FrameParse {
  Frame frame;
  std::size_t consumed = 0;
};
std::optional<FrameParse> try_parse_frame(std::span<const std::uint8_t> buffer);

/// The handshake's binary-compatibility fingerprint: a fold over the wire
/// version and every registered protocol and deviation name (builtin and
/// fuzz-user entries), so a worker whose registry cannot execute the
/// driver's specs is rejected at connect time rather than failing
/// mid-sweep.  Registers the builtin and fuzz-user entries itself.
std::uint64_t build_digest();

/// Order-sensitive fold of the sweep's canonical spec lines; carried in
/// kWelcome so the worker proves it decoded the driver's exact sweep.
std::uint64_t sweep_digest(std::span<const std::string> spec_lines);

}  // namespace fle::fabric
