#include "verify/shard.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <climits>
#include <cstdio>
#include <deque>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string_view>

namespace fle::verify {

namespace {

void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
}

template <typename Int>
void append_int(std::string& out, Int value) {
  char buffer[24];
  const char* end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
  out.append(buffer, static_cast<std::size_t>(end - buffer));
}

constexpr char kHexDigits[] = "0123456789abcdef";

/// Lowercase hex of `bytes`, written in place after one resize.
void append_hex(std::string& out, std::span<const std::uint8_t> bytes) {
  const std::size_t at = out.size();
  out.resize(at + 2 * bytes.size());
  char* cursor = out.data() + at;
  for (const std::uint8_t byte : bytes) {
    *cursor++ = kHexDigits[byte >> 4];
    *cursor++ = kHexDigits[byte & 0xf];
  }
}

/// Writes one flat JSON object straight into `out`, which may already hold
/// earlier rows (the canonical report appends every row to one string).
class RowWriter {
 public:
  explicit RowWriter(std::string& out) : out_(out) { out_ += '{'; }

  template <typename Int>
  void number(const char* key, Int value) {
    open(key);
    append_int(out_, value);
  }

  void raw(const char* key, std::string_view value) {
    open(key);
    out_ += value;
  }

  /// A quoted value that may need escaping (spec lines, display names).
  void text(const char* key, std::string_view value) {
    open_quoted(key);
    append_escaped(out_, value);
    out_ += '"';
  }

  /// Opens a quoted value the caller appends itself — digits, commas, F and
  /// hex only, which never need escaping — and closes with close_quoted().
  std::string& open_quoted(const char* key) {
    open(key);
    out_ += '"';
    return out_;
  }
  void close_quoted() { out_ += '"'; }

  void finish() { out_ += '}'; }

 private:
  void open(const char* key) {
    if (!first_) out_ += ", ";
    first_ = false;
    out_ += '"';
    out_ += key;
    out_ += "\": ";
  }

  std::string& out_;
  bool first_ = true;
};

std::string render_double(double value) {
  char buffer[64];
  // %.17g round-trips every IEEE double, keeping merged means bit-exact.
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Strict digits-only unsigned integer.  std::stoull would silently wrap
/// "-5", accept "+5" and numeric prefixes of garbage ("12abc"), turning a
/// corrupt row into a wrong-but-plausible aggregate instead of an error.
/// Returns nullopt for an empty cell, any non-digit, or overflow.
std::optional<std::uint64_t> strict_u64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

/// Calls fn(index, cell) for every cell of a comma-separated list, without
/// copying; an empty list has no cells.
template <typename Fn>
void for_each_cell(std::string_view list, Fn&& fn) {
  if (list.empty()) return;
  std::size_t index = 0;
  for (std::size_t start = 0;;) {
    const std::size_t comma = list.find(',', start);
    fn(index++, list.substr(start, comma == std::string_view::npos ? std::string_view::npos
                                                                   : comma - start));
    if (comma == std::string_view::npos) return;
    start = comma + 1;
  }
}

std::size_t cell_count(std::string_view list) {
  return list.empty() ? 0 : static_cast<std::size_t>(std::count(list.begin(), list.end(), ',')) + 1;
}

/// Minimal flat-JSON scanner for the rows this module itself writes: one
/// object, string / number / bool values, no nesting.  Values are views into
/// the scanned text (it must outlive the scanner); only a string holding an
/// escape is unescaped into storage of its own.
class FlatJson {
 public:
  explicit FlatJson(std::string_view text) {
    std::size_t i = 0;
    skip_ws(text, i);
    expect(text, i, '{');
    skip_ws(text, i);
    if (i < text.size() && text[i] == '}') {
      ++i;
    } else {
      for (;;) {
        skip_ws(text, i);
        const std::string_view key = parse_string(text, i);
        skip_ws(text, i);
        expect(text, i, ':');
        skip_ws(text, i);
        if (!values_.emplace(key, parse_value(text, i)).second) {
          throw bad("duplicate key '" + std::string(key) + "'");
        }
        skip_ws(text, i);
        if (i >= text.size()) throw bad("truncated row: unterminated object");
        if (text[i] == ',') {
          ++i;
          continue;
        }
        expect(text, i, '}');
        break;
      }
    }
    skip_ws(text, i);
    if (i != text.size()) {
      throw bad("trailing bytes after the row object (offset " + std::to_string(i) + ")");
    }
  }

  [[nodiscard]] bool has(std::string_view key) const { return values_.count(key) != 0; }

  [[nodiscard]] std::string_view str(std::string_view key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw bad("missing key '" + std::string(key) + "'");
    return it->second;
  }

  [[nodiscard]] std::uint64_t u64(std::string_view key) const {
    const std::string_view text = str(key);
    const std::optional<std::uint64_t> value = strict_u64(text);
    if (!value) {
      throw bad("key '" + std::string(key) + "' = '" + std::string(text) +
                "' is not an unsigned integer below 2^64");
    }
    return *value;
  }

  [[nodiscard]] double dbl(std::string_view key) const {
    const std::string text(str(key));
    std::size_t consumed = 0;
    double value = 0.0;
    try {
      value = std::stod(text, &consumed);
    } catch (const std::logic_error&) {
      throw bad("key '" + std::string(key) + "' = '" + text + "' is not a number");
    }
    if (consumed != text.size()) {
      throw bad("key '" + std::string(key) + "' = '" + text +
                "' has trailing bytes after the number");
    }
    return value;
  }

  [[nodiscard]] bool boolean(std::string_view key) const {
    const std::string_view text = str(key);
    if (text == "true") return true;
    if (text == "false") return false;
    throw bad("key '" + std::string(key) + "' = '" + std::string(text) + "' is not a boolean");
  }

 private:
  static std::invalid_argument bad(const std::string& what) {
    return std::invalid_argument("shard row: " + what);
  }

  static void skip_ws(std::string_view t, std::size_t& i) {
    while (i < t.size() && (t[i] == ' ' || t[i] == '\t' || t[i] == '\r')) ++i;
  }

  static void expect(std::string_view t, std::size_t& i, char c) {
    if (i >= t.size() || t[i] != c) {
      throw bad(std::string("expected '") + c + "' at offset " + std::to_string(i));
    }
    ++i;
  }

  std::string_view parse_string(std::string_view t, std::size_t& i) {
    expect(t, i, '"');
    const std::size_t start = i;
    // The first quote, then a backslash only before it: two memchr scans
    // (a hex transcripts cell is megabytes with neither inside).
    const std::size_t quote = t.find('"', i);
    if (quote != std::string_view::npos &&
        t.substr(start, quote - start).find('\\') == std::string_view::npos) {
      i = quote + 1;
      return t.substr(start, quote - start);  // no escapes: a view
    }
    std::string& out = owned_.emplace_back();
    while (i < t.size() && t[i] != '"') {
      if (t[i] == '\\') {
        ++i;
        if (i >= t.size()) throw bad("dangling escape");
        switch (t[i]) {
          case 'n':
            out += '\n';
            break;
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          default:
            throw bad(std::string("unknown escape '\\") + t[i] + "'");
        }
        ++i;
      } else {
        out += t[i++];
      }
    }
    expect(t, i, '"');
    return out;
  }

  std::string_view parse_value(std::string_view t, std::size_t& i) {
    if (i >= t.size()) throw bad("missing value");
    if (t[i] == '"') return parse_string(t, i);
    const std::size_t start = i;
    while (i < t.size() && t[i] != ',' && t[i] != '}' && t[i] != ' ') ++i;
    if (i == start) throw bad("empty value");
    return t.substr(start, i - start);
  }

  std::deque<std::string> owned_;  ///< unescaped strings (stable addresses)
  std::map<std::string_view, std::string_view, std::less<>> values_;
};

void append_counts(std::string& out, const OutcomeCounter& outcomes) {
  for (int j = 0; j < outcomes.domain(); ++j) {
    if (j != 0) out += ',';
    append_int(out, outcomes.count(static_cast<Value>(j)));
  }
}

void append_per_trial(std::string& out, const std::vector<Outcome>& per_trial) {
  for (std::size_t t = 0; t < per_trial.size(); ++t) {
    if (t != 0) out += ',';
    if (per_trial[t].failed()) {
      out += 'F';
    } else {
      append_int(out, per_trial[t].leader());
    }
  }
}

/// The transcripts column (comma-separated hex blobs, one per trial: the
/// compact binary encoding of sim/transcript.h, so a merged shard file
/// reproduces the monolithic capture event for event) and the derived
/// store_keys column (each blob's content key, sim/digest.h: the join
/// column between shard rows and the content-addressed store, src/store/).
/// A transcript's cached bytes and key are used as they are; a transcript
/// without them (a fresh capture) is encoded into one reused buffer and
/// hashed once.
void append_transcript_columns(RowWriter& row,
                               const std::vector<ExecutionTranscript>& transcripts) {
  std::vector<Digest256> keys;
  keys.reserve(transcripts.size());
  std::vector<std::uint8_t> scratch;
  std::string& blobs = row.open_quoted("transcripts");
  for (std::size_t t = 0; t < transcripts.size(); ++t) {
    if (t != 0) blobs += ',';
    const ExecutionTranscript& transcript = transcripts[t];
    const std::span<const std::uint8_t> bytes = transcript.encode_into(scratch);
    append_hex(blobs, bytes);
    keys.push_back(transcript.cached_key() ? *transcript.cached_key() : Sha256::of(bytes));
  }
  row.close_quoted();
  std::string& column = row.open_quoted("store_keys");
  for (std::size_t t = 0; t < keys.size(); ++t) {
    if (t != 0) column += ',';
    append_hex(column, keys[t].bytes);
  }
  row.close_quoted();
}

/// Nibble value of every byte, -1 for a non-hex character.  Either case is
/// accepted: we emit lowercase, but rows may pass through tools that
/// uppercase hex.
constexpr std::array<std::int8_t, 256> kHexValue = [] {
  std::array<std::int8_t, 256> table{};
  table.fill(-1);
  for (int i = 0; i < 10; ++i) table['0' + i] = static_cast<std::int8_t>(i);
  for (int i = 0; i < 6; ++i) {
    table['a' + i] = static_cast<std::int8_t>(10 + i);
    table['A' + i] = static_cast<std::int8_t>(10 + i);
  }
  return table;
}();

/// Decodes one hex blob into `bytes` (resized, so one buffer serves every
/// trial of a row) and then into a transcript.  The error names the decoded
/// byte offset so a corrupted row is localizable.
ExecutionTranscript transcript_from_hex(std::string_view hex, std::vector<std::uint8_t>& bytes) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("shard row: odd-length transcript hex blob");
  }
  bytes.resize(hex.size() / 2);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const int high = kHexValue[static_cast<std::uint8_t>(hex[2 * i])];
    const int low = kHexValue[static_cast<std::uint8_t>(hex[2 * i + 1])];
    if ((high | low) < 0) {
      const char c = high < 0 ? hex[2 * i] : hex[2 * i + 1];
      throw std::invalid_argument(std::string("shard row: bad transcript hex digit '") + c +
                                  "' at byte " + std::to_string(i));
    }
    bytes[i] = static_cast<std::uint8_t>((high << 4) | low);
  }
  return ExecutionTranscript::decode(bytes);
}

}  // namespace

ScenarioSpec shard_key_spec(ScenarioSpec spec) {
  spec.trial_offset = 0;
  spec.trial_count = 0;
  spec.threads = ScenarioSpec{}.threads;
  return spec;
}

void append_shard_row(std::string& out, std::size_t case_index, std::string_view spec_line,
                      const ScenarioResult& r, double wall_seconds) {
  RowWriter row(out);
  row.number("case", case_index);
  row.text("spec", spec_line);
  row.number("n", r.outcomes.domain());
  row.number("trials", r.trials);
  row.number("trial_offset", r.trial_offset);
  row.number("spec_trials", r.spec_trials);
  row.number("base_seed", r.base_seed);
  row.number("fails", r.outcomes.fails());
  append_counts(row.open_quoted("counts"), r.outcomes);
  row.close_quoted();
  row.number("total_messages", r.total_messages);
  row.number("max_messages", r.max_messages);
  row.number("total_sync_gap", r.total_sync_gap);
  row.number("max_sync_gap", r.max_sync_gap);
  row.number("max_rounds", r.max_rounds);
  row.raw("wall_seconds", render_double(wall_seconds));
  row.text("protocol_name", r.protocol_name);
  row.text("deviation_name", r.deviation_name);
  row.raw("recorded", r.outcomes_recorded ? "true" : "false");
  if (r.outcomes_recorded) {
    append_per_trial(row.open_quoted("per_trial"), r.per_trial);
    row.close_quoted();
  }
  row.raw("transcripts_recorded", r.transcripts_recorded ? "true" : "false");
  if (r.transcripts_recorded) append_transcript_columns(row, r.per_trial_transcript);
  row.finish();
}

std::string format_shard_row(const ShardRow& row) {
  std::string out;
  append_shard_row(out, row.case_index, row.spec_line, row.result, row.result.wall_seconds);
  return out;
}

ShardRow parse_shard_row(const std::string& line) {
  const FlatJson json(line);
  ShardRow row;
  row.case_index = json.u64("case");
  row.spec_line = json.str("spec");

  // Range-check before narrowing: a wrapped n or max_rounds would be a
  // plausible-looking wrong value, not an error.
  constexpr std::uint64_t kIntMax = static_cast<std::uint64_t>(INT_MAX);
  const std::uint64_t n = json.u64("n");
  if (n == 0 || n > kIntMax) {
    throw std::invalid_argument("shard row: key 'n' = " + std::to_string(n) +
                                " is outside [1, " + std::to_string(kIntMax) + "]");
  }
  const std::uint64_t max_rounds = json.u64("max_rounds");
  if (max_rounds > kIntMax) {
    throw std::invalid_argument("shard row: key 'max_rounds' = " + std::to_string(max_rounds) +
                                " exceeds " + std::to_string(kIntMax));
  }
  const std::uint64_t trials = json.u64("trials");
  // The counter is rebuilt by replaying `trials` records below; bound the
  // work so a corrupt row fails the parse instead of stalling the merge.
  constexpr std::uint64_t kMaxRowTrials = 100'000'000;
  if (trials > kMaxRowTrials) {
    throw std::invalid_argument("shard row: trials = " + std::to_string(trials) +
                                " exceeds the per-row limit " +
                                std::to_string(kMaxRowTrials));
  }

  // Parse and cross-check the outcome histogram BEFORE sizing anything by
  // n or replaying it into the counter: a corrupt cell must fail the parse,
  // not allocate n counters or spin the replay loop for 2^64 iterations.
  const std::string_view counts = json.str("counts");
  std::vector<std::uint64_t> cells;
  std::uint64_t counted = 0;
  for_each_cell(counts, [&](std::size_t index, std::string_view cell) {
    const std::optional<std::uint64_t> count = strict_u64(cell);
    if (!count) {
      throw std::invalid_argument("shard row: key 'counts' cell " + std::to_string(index) +
                                  " = '" + std::string(cell) +
                                  "' is not an unsigned integer below 2^64");
    }
    counted += *count;  // each cell is bounded below, so the sum cannot wrap
    if (*count > trials || counted > trials) {
      throw std::invalid_argument("shard row: key 'counts' exceeds trials = " +
                                  std::to_string(trials));
    }
    if (index >= n) {
      throw std::invalid_argument("shard row: key 'counts' has more cells than n = " +
                                  std::to_string(n));
    }
    cells.push_back(*count);
  });
  if (cells.size() != n) {
    throw std::invalid_argument("shard row: key 'counts' has " + std::to_string(cells.size()) +
                                " cells, expected n = " + std::to_string(n));
  }
  const std::uint64_t fails = json.u64("fails");
  if (counted + fails != trials) {
    throw std::invalid_argument("shard row: counts (" + std::to_string(counted) +
                                ") + fails (" + std::to_string(fails) + ") != trials (" +
                                std::to_string(trials) + ")");
  }

  ScenarioResult result(static_cast<int>(n));
  result.trials = trials;
  result.trial_offset = json.u64("trial_offset");
  result.spec_trials = json.u64("spec_trials");
  if (result.trial_offset > result.spec_trials ||
      result.trials > result.spec_trials - result.trial_offset) {
    throw std::invalid_argument(
        "shard row: window [" + std::to_string(result.trial_offset) + ", " +
        std::to_string(result.trial_offset + result.trials) +
        ") overruns the scenario's spec_trials = " + std::to_string(result.spec_trials));
  }
  result.base_seed = json.u64("base_seed");
  result.total_messages = json.u64("total_messages");
  result.max_messages = json.u64("max_messages");
  result.total_sync_gap = json.u64("total_sync_gap");
  result.max_sync_gap = json.u64("max_sync_gap");
  result.max_rounds = static_cast<int>(max_rounds);
  result.wall_seconds = json.dbl("wall_seconds");
  result.protocol_name = json.str("protocol_name");
  result.deviation_name = json.str("deviation_name");
  result.outcomes_recorded = json.boolean("recorded");

  for (Value leader = 0; leader < n; ++leader) {
    for (std::uint64_t c = 0; c < cells[static_cast<std::size_t>(leader)]; ++c) {
      result.outcomes.record(Outcome::elected(leader));
    }
  }
  for (std::uint64_t f = 0; f < fails; ++f) result.outcomes.record(Outcome::fail());

  if (result.outcomes_recorded) {
    // Every cell is F or a leader id in [0, n), and the per-trial outcomes
    // must tally to exactly the counts above (and so, with the trial count
    // fixed, to fails): the two columns describe the same trials.
    const std::string_view list = json.str("per_trial");
    std::vector<std::uint64_t> tally(cells.size(), 0);
    result.per_trial.reserve(std::min<std::size_t>(cell_count(list), trials));
    for_each_cell(list, [&](std::size_t index, std::string_view cell) {
      if (index >= trials) {
        throw std::invalid_argument("shard row: key 'per_trial' holds more than trials = " +
                                    std::to_string(trials) + " outcomes");
      }
      if (cell == "F") {
        result.per_trial.push_back(Outcome::fail());
        return;
      }
      const std::optional<std::uint64_t> leader = strict_u64(cell);
      if (!leader || *leader >= n) {
        throw std::invalid_argument("shard row: key 'per_trial' cell " + std::to_string(index) +
                                    " = '" + std::string(cell) +
                                    "' is neither F nor a leader id below n = " +
                                    std::to_string(n));
      }
      result.per_trial.push_back(Outcome::elected(*leader));
      ++tally[static_cast<std::size_t>(*leader)];
    });
    if (result.per_trial.size() != result.trials) {
      throw std::invalid_argument("shard row: key 'per_trial' holds " +
                                  std::to_string(result.per_trial.size()) +
                                  " outcomes, trials = " + std::to_string(result.trials));
    }
    for (std::size_t leader = 0; leader < cells.size(); ++leader) {
      if (tally[leader] != cells[leader]) {
        throw std::invalid_argument("shard row: key 'per_trial' elects leader " +
                                    std::to_string(leader) + " " +
                                    std::to_string(tally[leader]) + " times, counts says " +
                                    std::to_string(cells[leader]));
      }
    }
  }

  // Rows written before the transcript layer simply lack the key: not
  // recorded.
  result.transcripts_recorded =
      json.has("transcripts_recorded") && json.boolean("transcripts_recorded");
  if (result.transcripts_recorded) {
    const std::string_view list = json.str("transcripts");
    std::vector<std::uint8_t> bytes;
    result.per_trial_transcript.reserve(std::min<std::size_t>(cell_count(list), trials));
    for_each_cell(list, [&](std::size_t index, std::string_view blob) {
      try {
        result.per_trial_transcript.push_back(transcript_from_hex(blob, bytes));
      } catch (const std::exception& error) {
        throw std::invalid_argument("shard row: transcripts[" + std::to_string(index) +
                                    "]: " + error.what());
      }
    });
    if (result.per_trial_transcript.size() != result.trials) {
      throw std::invalid_argument("shard row: transcripts holds " +
                                  std::to_string(result.per_trial_transcript.size()) +
                                  " entries, trials = " + std::to_string(result.trials));
    }
    // The store-key column is derived data; when present it must agree
    // with the blobs it annotates, or the row was stitched from two
    // different captures.  This is the integrity check on every transcript
    // a fabric worker ships.  Each decoded transcript already holds its
    // canonical bytes, so each is hashed exactly once here and keeps the
    // verified key for the report and the store.
    if (json.has("store_keys")) {
      const std::string_view keys = json.str("store_keys");
      const std::size_t recorded = result.per_trial_transcript.size();
      for_each_cell(keys, [&](std::size_t trial, std::string_view key) {
        if (trial >= recorded) {
          throw std::invalid_argument("shard row: more store_keys than transcripts");
        }
        const Digest256& expected = result.per_trial_transcript[trial].cache_content_key();
        if (Digest256::from_hex(key) != expected) {
          throw std::invalid_argument("shard row: store_keys[" + std::to_string(trial) +
                                      "] = '" + std::string(key) +
                                      "' does not match the transcript (" + expected.hex() +
                                      ")");
        }
      });
      if (cell_count(keys) != recorded) {
        throw std::invalid_argument("shard row: store_keys holds " +
                                    std::to_string(cell_count(keys)) +
                                    " keys, transcripts = " + std::to_string(recorded));
      }
    }
  }

  result.mean_messages =
      result.trials > 0
          ? static_cast<double>(result.total_messages) / static_cast<double>(result.trials)
          : 0.0;
  result.mean_sync_gap =
      result.trials > 0
          ? static_cast<double>(result.total_sync_gap) / static_cast<double>(result.trials)
          : 0.0;
  row.result = std::move(result);
  return row;
}

std::map<std::size_t, MergedCase> merge_shard_rows(std::vector<ShardRow> rows) {
  std::map<std::size_t, std::vector<ShardRow>> by_case;
  for (ShardRow& row : rows) by_case[row.case_index].push_back(std::move(row));

  std::map<std::size_t, MergedCase> merged;
  for (auto& [index, group] : by_case) {
    std::sort(group.begin(), group.end(), [](const ShardRow& a, const ShardRow& b) {
      return a.result.trial_offset < b.result.trial_offset;
    });
    for (const ShardRow& row : group) {
      if (row.spec_line != group.front().spec_line) {
        throw std::invalid_argument("shard case " + std::to_string(index) +
                                    ": rows name different specs ('" +
                                    group.front().spec_line + "' vs '" + row.spec_line +
                                    "')");
      }
    }
    MergedCase out;
    out.spec_line = group.front().spec_line;
    out.result = std::move(group.front().result);
    for (std::size_t i = 1; i < group.size(); ++i) {
      // Diagnose window tiling faults by name before the generic merge
      // contiguity check: the likely operator errors are feeding the same
      // shard file twice (overlap) or forgetting one (gap).
      const std::size_t expected = out.result.trial_offset + out.result.trials;
      const std::size_t offset = group[i].result.trial_offset;
      if (offset < expected) {
        throw std::invalid_argument(
            "shard case " + std::to_string(index) + ": trial windows overlap at trial " +
            std::to_string(offset) + " (duplicate shard file?)");
      }
      if (offset > expected) {
        throw std::invalid_argument(
            "shard case " + std::to_string(index) + ": trial window gap [" +
            std::to_string(expected) + ", " + std::to_string(offset) +
            ") (missing shard file?)");
      }
      out.result.merge(std::move(group[i].result));  // enforces compatibility + contiguity
    }
    if (out.result.trial_offset != 0 || out.result.trials != out.result.spec_trials) {
      throw std::invalid_argument(
          "shard case " + std::to_string(index) + ": shards cover trials [" +
          std::to_string(out.result.trial_offset) + ", " +
          std::to_string(out.result.trial_offset + out.result.trials) +
          ") but the scenario has " + std::to_string(out.result.spec_trials) +
          " trials — a shard file is missing");
    }
    merged.emplace(index, std::move(out));
  }
  return merged;
}

}  // namespace fle::verify
