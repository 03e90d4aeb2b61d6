#include "sim/sync_engine.h"

#include <algorithm>
#include <stdexcept>

namespace fle {

class SyncEngine::Context final : public SyncContext {
 public:
  Context(SyncEngine& engine, ProcessorId id, std::uint64_t trial_seed)
      : engine_(&engine), id_(id), tape_(trial_seed, id) {}

  void reseed(std::uint64_t trial_seed) {
    tape_ = RandomTape(trial_seed, id_);
    round_ = 0;
  }

  void send(ProcessorId to, SyncPayload payload) override {
    require_live();
    if (to < 0 || to >= engine_->n_ || to == id_) {
      throw std::invalid_argument("invalid destination");
    }
    engine_->post(id_, to, engine_->stage(payload), payload.size());
  }

  /// One slab copy shared by every destination's envelope.
  void broadcast(SyncPayload payload) override {
    require_live();
    const std::size_t offset = engine_->stage(payload);
    for (ProcessorId to = 0; to < engine_->n_; ++to) {
      if (to != id_) engine_->post(id_, to, offset, payload.size());
    }
  }

  void terminate(Value output) override { finish(LocalOutput{false, output}); }
  void abort() override { finish(LocalOutput{true, 0}); }

  ProcessorId id() const override { return id_; }
  int network_size() const override { return engine_->n_; }
  int round() const override { return round_; }
  RandomTape& tape() override { return tape_; }

  void set_round(int r) { round_ = r; }

 private:
  void require_live() const {
    if (engine_->terminated_[static_cast<std::size_t>(id_)]) {
      throw std::logic_error("strategy sent after terminating");
    }
  }

  void finish(LocalOutput out) {
    auto& slot = engine_->outputs_[static_cast<std::size_t>(id_)];
    if (slot.has_value()) throw std::logic_error("strategy terminated twice");
    slot = out;
    engine_->terminated_[static_cast<std::size_t>(id_)] = true;
    if (engine_->transcript_) {
      engine_->transcript_->decision(static_cast<std::uint64_t>(id_), out.aborted, out.value);
    }
  }

  SyncEngine* engine_;
  ProcessorId id_;
  RandomTape tape_;
  int round_ = 0;
};

SyncEngine::SyncEngine(int n, std::uint64_t trial_seed, SyncEngineOptions options)
    : n_(n), trial_seed_(trial_seed), options_(options) {
  if (n_ < 2) throw std::invalid_argument("network needs at least 2 processors");
  if (options_.round_limit == 0) options_.round_limit = 4 * n_ + 8;
  contexts_.reserve(static_cast<std::size_t>(n_));
  for (ProcessorId p = 0; p < n_; ++p) contexts_.emplace_back(*this, p, trial_seed);
  next_mail_.resize(static_cast<std::size_t>(n_));
  round_mail_.resize(static_cast<std::size_t>(n_));
  reset(trial_seed);
}

SyncEngine::~SyncEngine() = default;

std::size_t SyncEngine::stage(SyncPayload payload) {
  const std::size_t offset = next_slab_.size();
  next_slab_.insert(next_slab_.end(), payload.begin(), payload.end());
  return offset;
}

void SyncEngine::post(ProcessorId from, ProcessorId to, std::size_t offset, std::size_t length) {
  ++stats_.total_sent;
  if (!terminated_[static_cast<std::size_t>(to)]) {
    next_mail_[static_cast<std::size_t>(to)].push_back({from, offset, length});
  }
}

void SyncEngine::reset(std::uint64_t trial_seed) {
  trial_seed_ = trial_seed;
  for (Context& context : contexts_) context.reseed(trial_seed);
  outputs_.assign(static_cast<std::size_t>(n_), std::nullopt);
  terminated_.assign(static_cast<std::size_t>(n_), false);
  next_slab_.clear();
  round_slab_.clear();
  for (auto& mail : next_mail_) mail.clear();
  for (auto& mail : round_mail_) mail.clear();
  inbox_.clear();
  quiet_rounds_ = 0;
  stats_.total_sent = 0;
  stats_.rounds = 0;
  stats_.round_limit_hit = false;
  armed_ = true;
}

Outcome SyncEngine::run(std::span<SyncStrategy* const> strategies) {
  if (static_cast<int>(strategies.size()) != n_) {
    throw std::invalid_argument("strategy count must equal network size");
  }
  if (!armed_) reset(trial_seed_);
  armed_ = false;

  for (int round = 1;; ++round) {
    if (round > options_.round_limit) {
      stats_.round_limit_hit = true;
      break;
    }
    stats_.rounds = round;
    // This round's deliveries are last round's sends; the vacated slab and
    // envelope lists (cleared, capacity kept) collect this round's sends
    // for the next one.
    round_slab_.swap(next_slab_);
    next_slab_.clear();
    round_mail_.swap(next_mail_);
    for (auto& mail : next_mail_) mail.clear();
    if (transcript_) {
      std::uint64_t delivered = 0;
      for (ProcessorId p = 0; p < n_; ++p) {
        if (!terminated_[static_cast<std::size_t>(p)]) {
          delivered += round_mail_[static_cast<std::size_t>(p)].size();
        }
      }
      transcript_->phase(static_cast<std::uint64_t>(round), delivered);
    }
    bool anyone_alive = false;
    for (ProcessorId p = 0; p < n_; ++p) {
      if (terminated_[static_cast<std::size_t>(p)]) continue;
      anyone_alive = true;
      auto& mail = round_mail_[static_cast<std::size_t>(p)];
      std::sort(mail.begin(), mail.end(),
                [](const Envelope& a, const Envelope& b) { return a.from < b.from; });
      inbox_.clear();
      for (const Envelope& e : mail) {
        inbox_.emplace_back(e.from, SyncPayload(round_slab_.data() + e.offset, e.length));
      }
      if (transcript_) {
        for (const auto& [from, payload] : inbox_) {
          // Sender and payload in one fingerprint; the receiver rides in
          // the event's own b slot.
          const std::uint64_t fold =
              mix64(static_cast<std::uint64_t>(from)) ^ transcript_fold(payload);
          transcript_->delivery(static_cast<std::uint64_t>(round),
                                static_cast<std::uint64_t>(p), fold);
        }
      }
      contexts_[static_cast<std::size_t>(p)].set_round(round);
      strategies[static_cast<std::size_t>(p)]->on_round(
          contexts_[static_cast<std::size_t>(p)], inbox_);
    }
    if (!anyone_alive) break;
    // Quiescence: nobody alive will ever receive anything again.
    bool any_pending = false;
    for (const auto& mail : next_mail_) {
      if (!mail.empty()) any_pending = true;
    }
    if (!any_pending && round > 1) {
      // One extra grace round lets strategies that act on empty inboxes
      // (e.g. detecting silence) terminate; a second empty round means the
      // execution can only spin.
      if (quiet_rounds_++ >= 1) break;
    } else {
      quiet_rounds_ = 0;
    }
  }

  return aggregate_outcome(std::span<const std::optional<LocalOutput>>(outputs_),
                           static_cast<std::size_t>(n_));
}

Outcome run_honest_sync(const SyncProtocol& protocol, int n, std::uint64_t trial_seed,
                        SyncEngineOptions options) {
  if (options.round_limit == 0) options.round_limit = protocol.round_bound(n);
  SyncEngine engine(n, trial_seed, options);
  StrategyArena arena;
  std::vector<SyncStrategy*> profile;
  profile.reserve(static_cast<std::size_t>(n));
  for (ProcessorId p = 0; p < n; ++p) profile.push_back(protocol.emplace_strategy(arena, p, n));
  return engine.run(std::span<SyncStrategy* const>(profile));
}

}  // namespace fle
