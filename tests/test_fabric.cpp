// The sweep fabric (src/fabric/): wire-protocol frame round-trips and
// malformed-input rejection, handshake digests, deterministic fault plans,
// hardened shard-row ingestion, and the end-to-end loopback contract —
// RemoteExecutor over in-process workers is bit-identical to run_sweep,
// clean or under an injected fault schedule, and fails loudly when the
// whole fleet dies.

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <exception>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/scenario.h"
#include "api/sweep.h"
#include "fabric/driver.h"
#include "fabric/fault.h"
#include "fabric/wire.h"
#include "fabric/worker.h"
#include "verify/shard.h"

namespace fle::fabric {
namespace {

// ---- wire protocol ----------------------------------------------------------

Frame roundtrip(const std::vector<std::uint8_t>& bytes) {
  const auto parsed = try_parse_frame(bytes);
  EXPECT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->consumed, bytes.size());
  return parsed->frame;
}

TEST(FabricWire, HelloRoundTrips) {
  Hello hello;
  hello.build = 0xdeadbeefcafef00dull;
  hello.label = "worker-7";
  const Frame frame = roundtrip(encode_frame(hello));
  ASSERT_EQ(frame.kind, MessageKind::kHello);
  EXPECT_EQ(frame.hello.version, kWireVersion);
  EXPECT_EQ(frame.hello.build, hello.build);
  EXPECT_EQ(frame.hello.label, "worker-7");
}

TEST(FabricWire, WelcomeCarriesSpecLines) {
  Welcome welcome;
  welcome.build = 7;
  welcome.spec_lines = {"topology=ring protocol=basic-lead n=4 trials=10 seed=1",
                        "topology=sync protocol=sync-ring-lead n=3 trials=5 seed=2"};
  welcome.spec_digest = sweep_digest(welcome.spec_lines);
  const Frame frame = roundtrip(encode_frame(welcome));
  ASSERT_EQ(frame.kind, MessageKind::kWelcome);
  EXPECT_EQ(frame.welcome.spec_lines, welcome.spec_lines);
  EXPECT_EQ(frame.welcome.spec_digest, welcome.spec_digest);
}

TEST(FabricWire, AssignResultHeartbeatErrorRoundTrip) {
  const Frame assign = roundtrip(encode_frame(Assign{9, 2, 128, 32}));
  ASSERT_EQ(assign.kind, MessageKind::kAssign);
  EXPECT_EQ(assign.assign.window, 9u);
  EXPECT_EQ(assign.assign.scenario, 2u);
  EXPECT_EQ(assign.assign.trial_offset, 128u);
  EXPECT_EQ(assign.assign.trial_count, 32u);

  ResultMsg result;
  result.window = 9;
  result.row = "{\"case\": 0}";
  const Frame echoed = roundtrip(encode_frame(result));
  ASSERT_EQ(echoed.kind, MessageKind::kResult);
  EXPECT_EQ(echoed.result.row, result.row);

  EXPECT_EQ(roundtrip(encode_frame(Heartbeat{41})).heartbeat.seq, 41u);

  ErrorMsg error;
  error.message = "boom";
  EXPECT_EQ(roundtrip(encode_frame(error)).error.message, "boom");

  EXPECT_EQ(roundtrip(encode_frame(MessageKind::kDrain)).kind, MessageKind::kDrain);
  EXPECT_EQ(roundtrip(encode_frame(MessageKind::kBye)).kind, MessageKind::kBye);
}

TEST(FabricWire, PartialBuffersKeepBuffering) {
  const std::vector<std::uint8_t> full = encode_frame(Heartbeat{500});
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(full.begin(),
                                           full.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(try_parse_frame(prefix).has_value()) << "cut at " << cut;
  }
}

TEST(FabricWire, BackToBackFramesParseSequentially) {
  std::vector<std::uint8_t> buffer = encode_frame(Heartbeat{1});
  const std::vector<std::uint8_t> second = encode_frame(MessageKind::kDrain);
  buffer.insert(buffer.end(), second.begin(), second.end());

  const auto first = try_parse_frame(buffer);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->frame.kind, MessageKind::kHeartbeat);
  buffer.erase(buffer.begin(), buffer.begin() + static_cast<std::ptrdiff_t>(first->consumed));
  const auto next = try_parse_frame(buffer);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->frame.kind, MessageKind::kDrain);
  EXPECT_EQ(next->consumed, buffer.size());
}

TEST(FabricWire, MalformedFramesThrow) {
  // Unknown message kinds, including 9-11 (wire v2's dedup frames).
  for (const std::uint8_t kind : {std::uint8_t{0xee}, std::uint8_t{9}, std::uint8_t{10},
                                  std::uint8_t{11}}) {
    try {
      (void)try_parse_frame(std::vector<std::uint8_t>{1, kind});
      ADD_FAILURE() << "kind " << int{kind} << " parsed";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("unknown message kind " + std::to_string(kind)),
                std::string::npos)
          << error.what();
    }
  }
  // Zero-length payload.
  EXPECT_THROW(try_parse_frame(std::vector<std::uint8_t>{0}), std::invalid_argument);
  // Length prefix far beyond the frame cap.
  EXPECT_THROW(
      try_parse_frame(std::vector<std::uint8_t>{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}),
      std::invalid_argument);
  // Trailing bytes after a complete payload (heartbeat + junk inside the frame).
  std::vector<std::uint8_t> padded = encode_frame(Heartbeat{3});
  padded[0] += 1;  // length prefix claims one more byte...
  padded.push_back(0x00);  // ...and here it is, unconsumed by the decoder
  EXPECT_THROW(try_parse_frame(padded), std::invalid_argument);
  // String field overruns the payload.
  std::vector<std::uint8_t> bad_string;
  leb128_put(bad_string, 3);
  bad_string.push_back(static_cast<std::uint8_t>(MessageKind::kError));
  leb128_put(bad_string, 200);  // claims a 200-byte message in a 3-byte payload
  bad_string.push_back('x');
  EXPECT_THROW(try_parse_frame(bad_string), std::invalid_argument);
}

TEST(FabricWire, OverlongLengthPrefixIsRejected) {
  // A heartbeat whose one-byte length prefix is rewritten as two bytes
  // (L|0x80, 0x00): same value, non-canonical encoding.
  const std::vector<std::uint8_t> frame = encode_frame(Heartbeat{5});
  ASSERT_LT(frame[0], 0x80);
  std::vector<std::uint8_t> overlong = {static_cast<std::uint8_t>(frame[0] | 0x80), 0x00};
  overlong.insert(overlong.end(), frame.begin() + 1, frame.end());
  try {
    (void)try_parse_frame(overlong);
    ADD_FAILURE() << "an overlong length prefix parsed";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("leb128: overlong varint"), std::string::npos)
        << error.what();
  }
  // The canonical frame still parses.
  ASSERT_TRUE(try_parse_frame(frame).has_value());
}

TEST(FabricWire, DigestsAreStableAndOrderSensitive) {
  EXPECT_EQ(build_digest(), build_digest());
  const std::vector<std::string> ab = {"a", "b"};
  const std::vector<std::string> ba = {"b", "a"};
  EXPECT_NE(sweep_digest(ab), sweep_digest(ba));
  EXPECT_EQ(sweep_digest(ab), sweep_digest(ab));
}

// ---- fault plans ------------------------------------------------------------

TEST(FaultPlan, ParseFormatRoundTrips) {
  const std::string text = "corrupt@1,kill@2,hang@3:2000,slow@4:250";
  const FaultPlan plan = FaultPlan::parse(text);
  ASSERT_EQ(plan.actions.size(), 4u);
  EXPECT_EQ(plan.format(), text);
  EXPECT_EQ(FaultPlan::parse(plan.format()), plan);
  EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultPlan, ActionAtMatchesOrdinal) {
  const FaultPlan plan = FaultPlan::parse("kill@2,slow@5:100");
  EXPECT_FALSE(plan.action_at(1).has_value());
  ASSERT_TRUE(plan.action_at(2).has_value());
  EXPECT_EQ(plan.action_at(2)->kind, FaultKind::kKill);
  ASSERT_TRUE(plan.action_at(5).has_value());
  EXPECT_EQ(plan.action_at(5)->millis, 100u);
}

TEST(FaultPlan, ParseRejectsMalformedPlans) {
  EXPECT_THROW(FaultPlan::parse("explode@1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("kill"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("kill@0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("kill@x"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("kill@1:5"), std::invalid_argument);    // no parameter
  EXPECT_THROW(FaultPlan::parse("corrupt@1:5"), std::invalid_argument); // no parameter
  EXPECT_THROW(FaultPlan::parse("kill@1,hang@1"), std::invalid_argument);  // duplicate
  EXPECT_THROW(FaultPlan::parse("kill@1,,kill@2"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("hang@2:abc"), std::invalid_argument);
}

TEST(FaultPlan, SampleIsDeterministic) {
  const FaultPlan a = FaultPlan::sample(99, 32, 0.5);
  const FaultPlan b = FaultPlan::sample(99, 32, 0.5);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(FaultPlan::sample(99, 32, 0.0).empty());
  const FaultPlan all = FaultPlan::sample(99, 16, 1.0);
  EXPECT_EQ(all.actions.size(), 16u);
  EXPECT_THROW(FaultPlan::sample(1, 4, 1.5), std::invalid_argument);
}

// ---- hardened shard-row ingestion -------------------------------------------

std::string valid_row() {
  ScenarioSpec spec;
  spec.protocol = "basic-lead";
  spec.n = 4;
  spec.trials = 10;
  spec.seed = 3;
  verify::ShardRow row;
  row.spec_line = "topology=ring protocol=basic-lead n=4 trials=10 seed=3";
  row.result = run_scenario(spec);
  return verify::format_shard_row(row);
}

void expect_parse_error(std::string row, const std::string& needle) {
  try {
    (void)verify::parse_shard_row(row);
    FAIL() << "expected rejection mentioning '" << needle << "' for: " << row;
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << "error was: " << error.what();
  }
}

TEST(ShardHardening, TruncatedRowNamesTheProblem) {
  const std::string row = valid_row();
  expect_parse_error(row.substr(0, row.size() / 2), "shard row");
  expect_parse_error(row.substr(0, row.size() - 1), "truncated");
}

TEST(ShardHardening, TrailingGarbageRejected) {
  expect_parse_error(valid_row() + " oops", "trailing");
}

TEST(ShardHardening, DuplicateKeysRejected) {
  std::string row = valid_row();
  row.insert(1, "\"case\": 0, ");
  expect_parse_error(row, "duplicate key 'case'");
}

TEST(ShardHardening, NonIntegerFieldsNameTheKey) {
  std::string negative = valid_row();
  const std::size_t seed_pos = negative.find("\"base_seed\": 3");
  ASSERT_NE(seed_pos, std::string::npos);
  negative.replace(seed_pos, 14, "\"base_seed\": -3");
  expect_parse_error(negative, "'base_seed'");

  std::string garbage = valid_row();
  const std::size_t trials_pos = garbage.find("\"trials\": 10");
  ASSERT_NE(trials_pos, std::string::npos);
  garbage.replace(trials_pos, 12, "\"trials\": 10abc");
  expect_parse_error(garbage, "'trials'");
}

TEST(ShardHardening, BadBooleanRejected) {
  std::string row = valid_row();
  const std::size_t pos = row.find("\"recorded\": false");
  ASSERT_NE(pos, std::string::npos);
  row.replace(pos, 17, "\"recorded\": maybe");
  expect_parse_error(row, "'recorded'");
}

TEST(ShardHardening, WindowOverrunningSpecTrialsRejected) {
  std::string row = valid_row();
  const std::size_t pos = row.find("\"trial_offset\": 0");
  ASSERT_NE(pos, std::string::npos);
  row.replace(pos, 17, "\"trial_offset\": 5");
  expect_parse_error(row, "overruns");
}

TEST(ShardHardening, BadTranscriptHexNamesTheTrial) {
  ScenarioSpec spec;
  spec.protocol = "basic-lead";
  spec.n = 4;
  spec.trials = 2;
  spec.seed = 3;
  spec.record_outcomes = true;
  spec.record_transcripts = true;
  verify::ShardRow row;
  row.spec_line =
      "topology=ring protocol=basic-lead n=4 trials=2 seed=3 record=1 transcripts=1";
  row.result = run_scenario(spec);
  std::string line = verify::format_shard_row(row);

  const std::size_t pos = line.find("\"transcripts\": \"");
  ASSERT_NE(pos, std::string::npos);
  std::string corrupted = line;
  corrupted[pos + 16] = 'z';  // not a hex digit
  expect_parse_error(corrupted, "transcripts[0]");

  std::string truncated = line;
  const std::size_t comma = truncated.find(',', pos);
  ASSERT_NE(comma, std::string::npos);
  truncated.erase(comma - 1, 1);  // odd-length first blob
  expect_parse_error(truncated, "transcripts[0]");
}

verify::ShardRow recorded_row() {
  ScenarioSpec spec;
  spec.protocol = "basic-lead";
  spec.n = 4;
  spec.trials = 2;
  spec.seed = 3;
  spec.record_outcomes = true;
  spec.record_transcripts = true;
  verify::ShardRow row;
  row.spec_line =
      "topology=ring protocol=basic-lead n=4 trials=2 seed=3 record=1 transcripts=1";
  row.result = run_scenario(spec);
  return row;
}

TEST(ShardHardening, UppercaseTranscriptHexAccepted) {
  const std::string line = verify::format_shard_row(recorded_row());
  const std::size_t start = line.find("\"transcripts\": \"") + 16;
  ASSERT_NE(start, std::string::npos + 16);
  const std::size_t end = line.find('"', start);
  ASSERT_NE(end, std::string::npos);
  std::string uppercased = line;
  for (std::size_t i = start; i < end; ++i) {
    uppercased[i] = static_cast<char>(std::toupper(uppercased[i]));
  }
  const verify::ShardRow original = verify::parse_shard_row(line);
  const verify::ShardRow upper = verify::parse_shard_row(uppercased);
  ASSERT_EQ(upper.result.per_trial_transcript.size(),
            original.result.per_trial_transcript.size());
  for (std::size_t t = 0; t < original.result.per_trial_transcript.size(); ++t) {
    EXPECT_EQ(upper.result.per_trial_transcript[t], original.result.per_trial_transcript[t]);
  }
}

TEST(ShardHardening, BadTranscriptHexReportsTheByteOffset) {
  std::string line = verify::format_shard_row(recorded_row());
  const std::size_t start = line.find("\"transcripts\": \"") + 16;
  ASSERT_NE(start, std::string::npos + 16);
  line[start + 7] = 'q';  // hex digit 7 = byte 3 of trial 0's blob
  expect_parse_error(line, "'q' at byte 3");
}

TEST(ShardHardening, StoreKeysValidateAgainstTheTranscripts) {
  const verify::ShardRow row = recorded_row();
  const std::string line = verify::format_shard_row(row);
  ASSERT_NE(line.find("\"store_keys\""), std::string::npos);
  // The emitted keys parse back and match the recorded content keys.
  (void)verify::parse_shard_row(line);
  // A corrupted key is caught by the transcript cross-check.
  std::string corrupted = line;
  const std::size_t pos = corrupted.find("\"store_keys\": \"") + 15;
  corrupted[pos] = corrupted[pos] == '0' ? '1' : '0';
  expect_parse_error(corrupted, "store_keys[0]");
}

TEST(ShardHardening, OverlongTranscriptVarintIsRejected) {
  const std::string line = verify::format_shard_row(recorded_row());
  const std::size_t start = line.find("\"transcripts\": \"") + 16;
  ASSERT_NE(start, std::string::npos + 16);
  // Byte 4 of a FLET blob is its event-count varint; the recorded trial has
  // fewer than 128 events, so the count is one byte.  Rewrite it as the
  // two-byte overlong form: the blob then decodes to the same events under
  // a different byte string, which must not pass for the key of either.
  const std::size_t count_hex = start + 8;
  const int count = std::stoi(line.substr(count_hex, 2), nullptr, 16);
  ASSERT_LT(count, 0x80);
  char overlong[5];
  std::snprintf(overlong, sizeof(overlong), "%02x00", count | 0x80);
  std::string corrupted = line;
  corrupted.replace(count_hex, 2, overlong);
  expect_parse_error(corrupted, "transcripts[0]");
  expect_parse_error(corrupted, "leb128: overlong varint");
}

/// A canonical 3-trial row with n = 4, counts 0,1,1,1 and per-trial
/// outcomes 1,2,3: the base the consistency tests below corrupt one key of.
const std::string kStrictRow =
    R"({"case": 0, "spec": "topology=ring protocol=basic-lead n=4 trials=3 seed=1 record=1", )"
    R"("n": 4, "trials": 3, "trial_offset": 0, "spec_trials": 3, "base_seed": 1, )"
    R"("fails": 0, "counts": "0,1,1,1", "total_messages": 48, "max_messages": 16, )"
    R"("total_sync_gap": 0, "max_sync_gap": 0, "max_rounds": 0, "wall_seconds": 0, )"
    R"("protocol_name": "Basic-LEAD", "deviation_name": "", "recorded": true, )"
    R"("per_trial": "1,2,3", "transcripts_recorded": false})";

std::string with_value(const std::string& key, const std::string& from, const std::string& to) {
  std::string row = kStrictRow;
  const std::string needle = "\"" + key + "\": " + from;
  const std::size_t pos = row.find(needle);
  EXPECT_NE(pos, std::string::npos) << needle;
  if (pos != std::string::npos) row.replace(pos, needle.size(), "\"" + key + "\": " + to);
  return row;
}

TEST(ShardHardening, PerTrialCellsAreLeaderIdsBelowN) {
  // The base row itself is valid and canonical.
  ASSERT_EQ(verify::format_shard_row(verify::parse_shard_row(kStrictRow)), kStrictRow);
  for (const char* cells : {"\"-1,99,3x\"", "\"-1,2,3\"", "\"1,99,3\"", "\"1,2,3x\""}) {
    expect_parse_error(with_value("per_trial", "\"1,2,3\"", cells), "'per_trial'");
  }
}

TEST(ShardHardening, PerTrialMustTallyToCountsAndFails) {
  expect_parse_error(with_value("per_trial", "\"1,2,3\"", "\"0,0,0\""), "'per_trial'");
  expect_parse_error(with_value("per_trial", "\"1,2,3\"", "\"1,2,F\""), "'per_trial'");
}

TEST(ShardHardening, CountsCellsAreDigitsOnly) {
  expect_parse_error(with_value("counts", "\"0,1,1,1\"", "\"+0,+1,+1,+1\""), "'counts'");
}

TEST(ShardHardening, NIsRangeCheckedBeforeNarrowing) {
  expect_parse_error(with_value("n", "4", "4294967300"), "'n'");
}

TEST(ShardHardening, MaxRoundsIsRangeCheckedBeforeNarrowing) {
  expect_parse_error(with_value("max_rounds", "0", "2147483648"), "'max_rounds'");
}

// The string scan finds a value's closing quote first and looks for a
// backslash only before it; these pin that it unescapes, stops and fails
// exactly where a byte-by-byte scan would.

TEST(ShardStringScan, EscapesAfterALongUnescapedRunAreDecoded) {
  const std::string run(5000, 'x');
  const std::string row =
      with_value("deviation_name", "\"\"", "\"" + run + R"(\"q\\r\nz")");
  const verify::ShardRow parsed = verify::parse_shard_row(row);
  EXPECT_EQ(parsed.result.deviation_name, run + "\"q\\r\nz");
  EXPECT_EQ(parsed.result.protocol_name, "Basic-LEAD");
  EXPECT_EQ(verify::format_shard_row(parsed), row);
}

TEST(ShardStringScan, BackslashAfterTheClosingQuoteIsNotPartOfTheValue) {
  // A long unescaped value followed by a later value that holds an escape:
  // the first value ends at its own quote.
  const std::string run(5000, 'y');
  std::string row = with_value("protocol_name", "\"Basic-LEAD\"", "\"" + run + "\"");
  const std::string needle = R"("deviation_name": "")";
  row.replace(row.find(needle), needle.size(), R"("deviation_name": "a\\b")");
  const verify::ShardRow parsed = verify::parse_shard_row(row);
  EXPECT_EQ(parsed.result.protocol_name, run);
  EXPECT_EQ(parsed.result.deviation_name, "a\\b");

  // A backslash right after a closing quote is a stray byte in the object.
  std::string stray = kStrictRow;
  const std::size_t quote = stray.find(R"("Basic-LEAD")") + 11;
  stray.insert(quote + 1, "\\");
  expect_parse_error(stray, "shard row: expected '}' at offset " + std::to_string(quote + 1));
}

TEST(ShardStringScan, UnterminatedStringsFailWithTheirOffset) {
  const auto expect_exact = [](const std::string& row, const std::string& message) {
    try {
      (void)verify::parse_shard_row(row);
      ADD_FAILURE() << "expected rejection for: " << row;
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()), message);
    }
  };
  // No backslash anywhere: the scan runs to the end of the text.
  const std::string plain = R"({"case": 0, "spec": "topology=ring )" + std::string(3000, 'z');
  expect_exact(plain, "shard row: expected '\"' at offset " + std::to_string(plain.size()));
  // An escaped quote is not a closing one.
  const std::string escaped = R"({"case": 0, "spec": "topology=ring \")";
  expect_exact(escaped, "shard row: expected '\"' at offset " + std::to_string(escaped.size()));
  // A backslash as the last byte.
  expect_exact(R"({"case": 0, "spec": "topology\)", "shard row: dangling escape");
  // An unknown escape before any closing quote.
  expect_exact(R"({"case": 0, "spec": "a\tb"})", "shard row: unknown escape '\\t'");
}

TEST(ShardHardening, MergeNamesOverlapAndGap) {
  ScenarioSpec spec;
  spec.protocol = "basic-lead";
  spec.n = 4;
  spec.trials = 10;
  spec.seed = 3;
  const std::string spec_line = "topology=ring protocol=basic-lead n=4 trials=10 seed=3";

  const auto window_row = [&](std::size_t offset, std::size_t count) {
    ScenarioSpec window = spec;
    window.trial_offset = offset;
    window.trial_count = count;
    verify::ShardRow row;
    row.spec_line = spec_line;
    row.result = run_scenario(window);
    return row;
  };

  {  // duplicate shard file → overlap, named as such
    std::vector<verify::ShardRow> rows = {window_row(0, 5), window_row(0, 5),
                                          window_row(5, 5)};
    try {
      (void)verify::merge_shard_rows(std::move(rows));
      FAIL() << "expected overlap rejection";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("overlap"), std::string::npos)
          << error.what();
      EXPECT_NE(std::string(error.what()).find("duplicate shard file"), std::string::npos)
          << error.what();
    }
  }
  {  // missing middle shard → gap, named as such
    std::vector<verify::ShardRow> rows = {window_row(0, 3), window_row(7, 3)};
    try {
      (void)verify::merge_shard_rows(std::move(rows));
      FAIL() << "expected gap rejection";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("gap [3, 7)"), std::string::npos)
          << error.what();
    }
  }
  {  // missing tail shard → the tiling check names the uncovered range
    std::vector<verify::ShardRow> rows = {window_row(0, 5)};
    EXPECT_THROW((void)verify::merge_shard_rows(std::move(rows)), std::invalid_argument);
  }
}

// ---- the loopback fabric ----------------------------------------------------

SweepSpec loopback_sweep() {
  SweepSpec sweep;
  {
    ScenarioSpec spec;
    spec.protocol = "alead-uni";
    spec.n = 8;
    spec.trials = 60;
    spec.seed = 17;
    sweep.add(spec);
  }
  {
    ScenarioSpec spec;
    spec.protocol = "basic-lead";
    spec.n = 5;
    spec.trials = 30;
    spec.seed = 5;
    spec.record_outcomes = true;
    spec.record_transcripts = true;
    sweep.add(spec);
  }
  {
    ScenarioSpec spec;
    spec.topology = TopologyKind::kSync;
    spec.protocol = "sync-broadcast-lead";
    spec.n = 4;
    spec.trials = 24;
    spec.seed = 23;
    sweep.add(spec);
  }
  return sweep;
}

/// Runs the sweep on a RemoteExecutor fed by in-process workers (one thread
/// per FaultPlan) and requires the canonical report to be byte-identical to
/// the in-process run_sweep.
void expect_fabric_matches_local(const std::vector<FaultPlan>& worker_plans,
                                 FabricOptions options) {
  const SweepSpec sweep = loopback_sweep();
  const std::vector<ScenarioResult> local = run_sweep(sweep);

  RemoteExecutor executor(options);
  std::vector<std::thread> workers;
  workers.reserve(worker_plans.size());
  for (std::size_t w = 0; w < worker_plans.size(); ++w) {
    WorkerOptions worker;
    worker.port = executor.port();
    worker.label = "t";
    worker.label += std::to_string(w);
    worker.faults = worker_plans[w];
    worker.threads = 2;
    workers.push_back(std::thread([worker] { (void)run_worker(worker); }));
  }
  std::vector<ScenarioResult> remote;
  try {
    remote = executor.run_sweep(sweep);
  } catch (...) {
    for (std::thread& t : workers) t.join();
    throw;
  }
  for (std::thread& t : workers) t.join();

  ASSERT_EQ(remote.size(), local.size());
  // Byte-identical, transcripts included: the whole acceptance criterion in
  // one string comparison.
  EXPECT_EQ(canonical_report(sweep, remote), canonical_report(sweep, local));
}

TEST(FabricLoopback, CleanRunIsBitIdenticalToLocal) {
  FabricOptions options;
  options.window_trials = 16;
  expect_fabric_matches_local({FaultPlan{}, FaultPlan{}}, options);
}

TEST(FabricLoopback, SurvivesKillHangCorruptAndSlowWorkers) {
  FabricOptions options;
  options.window_trials = 8;
  options.window_deadline = std::chrono::milliseconds(400);
  options.heartbeat_interval = std::chrono::milliseconds(100);
  expect_fabric_matches_local(
      {
          FaultPlan::parse("kill@2"),
          FaultPlan::parse("hang@1:2000"),  // past the deadline: dropped + re-issued
          FaultPlan::parse("corrupt@1,slow@2:150"),
          FaultPlan{},  // one steady worker keeps the sweep finishable
      },
      options);
}

TEST(FabricLoopback, SeededFaultPlansStayBitIdentical) {
  FabricOptions options;
  options.window_trials = 8;
  options.window_deadline = std::chrono::milliseconds(400);
  for (const std::uint64_t seed : {1ull, 2ull}) {
    // Faulted workers plus one steady one; every sampled schedule must
    // produce the same bytes.
    expect_fabric_matches_local(
        {FaultPlan::sample(seed, 6, 0.4), FaultPlan::sample(seed + 100, 6, 0.4),
         FaultPlan{}},
        options);
  }
}

TEST(FabricDriver, BackoffDeadlineDoublesAndSaturates) {
  using std::chrono::milliseconds;
  EXPECT_EQ(backoff_deadline(milliseconds(100), 1), milliseconds(100));
  EXPECT_EQ(backoff_deadline(milliseconds(100), 2), milliseconds(200));
  EXPECT_EQ(backoff_deadline(milliseconds(100), 4), milliseconds(800));
  EXPECT_EQ(backoff_deadline(milliseconds(100), 9), milliseconds(800));  // capped at 8x
  // Regression: a huge --deadline-ms used to overflow `base * 8` (and the
  // subsequent now() + deadline addition in nanoseconds) into a deadline in
  // the past, so every worker instantly "missed" its window.
  const auto huge = milliseconds(std::numeric_limits<std::int64_t>::max() / 10);
  for (int attempts = 1; attempts <= 5; ++attempts) {
    const auto saturated = backoff_deadline(huge, attempts);
    EXPECT_GT(saturated.count(), 0);
    const auto before = std::chrono::steady_clock::now();
    EXPECT_GT(before + saturated, before);
  }
}

TEST(FabricLoopback, RowWithAForgedStoreKeyIsDroppedAndReissued) {
  // A transcript's only integrity check on the wire is parse_shard_row's
  // store-key cross-check.  A hand-rolled worker answers its first
  // assignment with an otherwise valid row whose store_keys[0] is flipped:
  // the driver must drop it (close the connection rather than assign it
  // more work) and re-issue the window to an honest worker.
  SweepSpec sweep;
  ScenarioSpec spec;
  spec.protocol = "basic-lead";
  spec.n = 5;
  spec.trials = 30;
  spec.seed = 5;
  spec.record_outcomes = true;
  spec.record_transcripts = true;
  sweep.add(spec);
  const std::vector<ScenarioResult> local = run_sweep(sweep);

  FabricOptions options;
  options.window_trials = 10;
  RemoteExecutor executor(options);
  std::vector<ScenarioResult> remote;
  std::exception_ptr failure;
  std::thread driver([&] {
    try {
      remote = executor.run_sweep(sweep);
    } catch (...) {
      failure = std::current_exception();
    }
  });

  const auto forge = [&] {
    Socket sock = connect_tcp("127.0.0.1", executor.port(), std::chrono::seconds(5));
    set_read_timeout(sock.fd(), std::chrono::seconds(10));
    const auto send = [&sock](const std::vector<std::uint8_t>& bytes) {
      send_bytes(sock.fd(), bytes.data(), bytes.size(), /*blocking=*/true);
    };
    Hello hello;
    hello.build = build_digest();
    hello.label = "forger";
    send(encode_frame(hello));
    std::vector<std::uint8_t> buffer;
    const std::optional<Frame> welcome = read_frame(sock.fd(), buffer);
    ASSERT_TRUE(welcome.has_value());
    ASSERT_EQ(welcome->kind, MessageKind::kWelcome);
    std::optional<Frame> assign = read_frame(sock.fd(), buffer);
    while (assign && assign->kind == MessageKind::kHeartbeat) {
      assign = read_frame(sock.fd(), buffer);
    }
    ASSERT_TRUE(assign.has_value());
    ASSERT_EQ(assign->kind, MessageKind::kAssign);

    ScenarioSpec window = spec;
    window.trial_offset = assign->assign.trial_offset;
    window.trial_count = assign->assign.trial_count;
    verify::ShardRow row;
    row.case_index = assign->assign.scenario;
    row.spec_line = welcome->welcome.spec_lines.at(assign->assign.scenario);
    row.result = run_scenario(window);
    ResultMsg forged;
    forged.window = assign->assign.window;
    forged.row = verify::format_shard_row(row);
    const std::size_t key = forged.row.find("\"store_keys\": \"") + 15;
    ASSERT_NE(key, std::string::npos + 15);
    forged.row[key] = forged.row[key] == '0' ? '1' : '0';
    send(encode_frame(forged));

    // Dropped: the driver closes the connection instead of assigning the
    // forger another of the two windows still pending.
    std::optional<Frame> next;
    try {
      next = read_frame(sock.fd(), buffer);
    } catch (const std::runtime_error&) {
      next.reset();  // a connection reset counts as closed
    }
    EXPECT_FALSE(next.has_value()) << "driver kept the forger: got '"
                                   << to_string(next->kind) << "'";
  };
  forge();

  WorkerOptions honest;
  honest.port = executor.port();
  honest.threads = 2;
  std::thread worker([honest] { (void)run_worker(honest); });
  driver.join();
  worker.join();
  if (failure) std::rethrow_exception(failure);
  EXPECT_EQ(canonical_report(sweep, remote), canonical_report(sweep, local));
}

TEST(FabricLoopback, AllWorkersDeadFailsTheSweepLoudly) {
  FabricOptions options;
  options.window_trials = 16;
  options.window_deadline = std::chrono::milliseconds(300);
  options.worker_grace = std::chrono::milliseconds(800);
  try {
    expect_fabric_matches_local({FaultPlan::parse("kill@1"), FaultPlan::parse("kill@1")},
                                options);
    FAIL() << "expected the sweep to fail with no workers left";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("all workers lost"), std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("outstanding"), std::string::npos)
        << error.what();
  }
}

TEST(FabricLoopback, RejectsMismatchedBuilds) {
  RemoteExecutor executor(FabricOptions{});
  std::thread driver([&executor] {
    try {
      (void)executor.run_sweep(loopback_sweep());
    } catch (const std::runtime_error&) {
      // Expected: the only worker is rejected, then the grace expires.
    }
  });
  // Speak the protocol directly with a wrong build digest.
  Socket sock = connect_tcp("127.0.0.1", executor.port(), std::chrono::seconds(5));
  set_read_timeout(sock.fd(), std::chrono::seconds(10));
  Hello hello;
  hello.build = 0x1234;  // no real build folds to this
  hello.label = "impostor";
  const auto bytes = encode_frame(hello);
  send_bytes(sock.fd(), bytes.data(), bytes.size(), /*blocking=*/true);
  std::vector<std::uint8_t> buffer;
  const auto reply = read_frame(sock.fd(), buffer);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->kind, MessageKind::kError);
  EXPECT_NE(reply->error.message.find("handshake rejected"), std::string::npos);
  driver.join();
}

// ---- backend routing --------------------------------------------------------

class CountingBackend final : public SweepBackend {
 public:
  std::vector<ScenarioResult> run_sweep(const SweepSpec& sweep) override {
    ++calls;
    std::vector<ScenarioResult> out;
    for (const ScenarioSpec& spec : sweep.scenarios) out.push_back(ScenarioResult(spec.n));
    return out;
  }
  int calls = 0;
};

TEST(SweepBackend, RunSweepRoutesThroughInstalledBackend) {
  CountingBackend backend;
  SweepBackend* previous = set_sweep_backend(&backend);
  SweepSpec sweep;
  ScenarioSpec spec;
  spec.protocol = "basic-lead";
  spec.n = 4;
  spec.trials = 5;
  sweep.add(spec);
  const std::vector<ScenarioResult> results = run_sweep(sweep);
  set_sweep_backend(previous);
  EXPECT_EQ(backend.calls, 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].outcomes.domain(), 4);
  // With the backend uninstalled the in-process executor is back.
  const std::vector<ScenarioResult> direct = run_sweep(sweep);
  EXPECT_EQ(backend.calls, 1);
  EXPECT_EQ(direct[0].trials, 5u);
}

}  // namespace
}  // namespace fle::fabric
