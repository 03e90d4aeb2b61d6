#include "protocols/shamir_lead.h"

#include <algorithm>
#include <cassert>

namespace fle {

GraphStrategy* ShamirLeadProtocol::emplace_strategy(StrategyArena& arena, ProcessorId id,
                                                    int n) const {
  if (n != params_.n) throw std::invalid_argument("network size mismatch");
  return arena.emplace<ShamirLeadStrategy>(id, lagrange_, arena);
}

ShamirLeadStrategy::ShamirLeadStrategy(ProcessorId id, const LagrangeTable& lagrange,
                                       StrategyArena& arena)
    : id_(id), params_{lagrange.n(), lagrange.t()}, lagrange_(lagrange) {
  const auto n = static_cast<std::size_t>(params_.n);
  held_ = arena.array<std::optional<Fp>>(n);
  ready_from_ = arena.array<bool>(n);
  reveals_ = arena.array<Fp>(n * n);
  revealed_from_ = arena.array<bool>(n);
  points_ = arena.array<Fp>(n);
  coeffs_ = arena.array<Fp>(static_cast<std::size_t>(params_.t));
  wire_ = arena.array<Value>(n + 1);
}

void ShamirLeadStrategy::on_init(GraphContext& ctx) {
  distribute(ctx, ctx.tape().uniform(static_cast<Value>(params_.n)));
}

void ShamirLeadStrategy::fail(GraphContext& ctx) {
  if (dead_) return;
  dead_ = true;
  ctx.abort();
}

void ShamirLeadStrategy::distribute(GraphContext& ctx, Value secret) {
  assert(!distributed_);
  distributed_ = true;
  secret_ = secret;
  shamir_polynomial(Fp(secret), coeffs_, ctx.tape().raw());
  for (ProcessorId j = 0; j < params_.n; ++j) {
    const Fp y = shamir_evaluate(coeffs_, Fp(static_cast<std::uint64_t>(j) + 1));
    if (j == id_) {
      held_[static_cast<std::size_t>(id_)] = y;
      ++shares_count_;
    } else {
      ctx.send(j, {static_cast<Value>(ShamirTag::kShare), y.value()});
    }
  }
  maybe_advance(ctx);
}

void ShamirLeadStrategy::maybe_advance(GraphContext& ctx) {
  if (dead_) return;
  // Share barrier -> READY broadcast (commitment point).
  if (shares_count_ == params_.n && !ready_from_[static_cast<std::size_t>(id_)]) {
    ready_from_[static_cast<std::size_t>(id_)] = true;
    ++ready_count_;
    for (ProcessorId j = 0; j < params_.n; ++j) {
      if (j != id_) ctx.send(j, {static_cast<Value>(ShamirTag::kReady)});
    }
  }
  // Ready barrier -> REVEAL broadcast.
  if (ready_count_ == params_.n && !revealed_) {
    revealed_ = true;
    send_reveal(ctx);
  }
  if (reveal_count_ == params_.n) finalize(ctx);
}

void ShamirLeadStrategy::send_reveal(GraphContext& ctx) {
  std::transform(held_.begin(), held_.end(), own_reveal().begin(),
                 [](const std::optional<Fp>& h) { return *h; });
  broadcast_reveal(ctx);
}

void ShamirLeadStrategy::broadcast_reveal(GraphContext& ctx) {
  wire_[0] = static_cast<Value>(ShamirTag::kReveal);
  std::transform(own_reveal().begin(), own_reveal().end(), wire_.begin() + 1,
                 [](Fp v) { return v.value(); });
  for (ProcessorId j = 0; j < params_.n; ++j) {
    if (j != id_) ctx.send(j, wire_);
  }
  revealed_from_[static_cast<std::size_t>(id_)] = true;
  ++reveal_count_;
  if (reveal_count_ == params_.n) finalize(ctx);
}

void ShamirLeadStrategy::on_receive(GraphContext& ctx, ProcessorId from, GraphPayload m) {
  if (dead_) return;
  if (m.empty()) return fail(ctx);
  // Field words arrive canonical from every honest sender.
  const auto in_field = [](Value word) { return word < Fp::kP; };
  switch (static_cast<ShamirTag>(m[0])) {
    case ShamirTag::kShare: {
      if (m.size() != 2 || held_[static_cast<std::size_t>(from)].has_value() ||
          !in_field(m[1])) {
        return fail(ctx);
      }
      held_[static_cast<std::size_t>(from)] = Fp(m[1]);
      ++shares_count_;
      break;
    }
    case ShamirTag::kReady: {
      if (m.size() != 1 || ready_from_[static_cast<std::size_t>(from)]) return fail(ctx);
      ready_from_[static_cast<std::size_t>(from)] = true;
      ++ready_count_;
      break;
    }
    case ShamirTag::kReveal: {
      if (m.size() != static_cast<std::size_t>(params_.n) + 1 ||
          revealed_from_[static_cast<std::size_t>(from)] ||
          !std::all_of(m.begin() + 1, m.end(), in_field)) {
        return fail(ctx);
      }
      const std::span<Fp> row = reveal_row(from);
      for (std::size_t i = 0; i < row.size(); ++i) row[i] = Fp(m[i + 1]);
      revealed_from_[static_cast<std::size_t>(from)] = true;
      ++reveal_count_;
      break;
    }
    default:
      return fail(ctx);
  }
  maybe_advance(ctx);
}

std::optional<Fp> ShamirLeadStrategy::reconstruct(ProcessorId owner) {
  for (ProcessorId j = 0; j < params_.n; ++j) {
    if (!revealed_from_[static_cast<std::size_t>(j)]) return std::nullopt;
    points_[static_cast<std::size_t>(j)] = reveal_row(j)[static_cast<std::size_t>(owner)];
  }
  return lagrange_.reconstruct_checked(points_);
}

void ShamirLeadStrategy::finalize(GraphContext& ctx) {
  if (dead_) return;
  Value sum = 0;
  for (ProcessorId owner = 0; owner < params_.n; ++owner) {
    const auto secret = reconstruct(owner);
    if (!secret.has_value()) return fail(ctx);  // inconsistent points: someone lied
    if (owner == id_ && secret->value() % static_cast<Value>(params_.n) !=
                            secret_ % static_cast<Value>(params_.n)) {
      return fail(ctx);  // my own secret did not survive
    }
    sum = (sum + secret->value() % static_cast<Value>(params_.n)) %
          static_cast<Value>(params_.n);
  }
  dead_ = true;
  ctx.terminate(sum);
}

}  // namespace fle
