#include "kv_backend.hh"

#include <algorithm>
#include <cstring>
#include <type_traits>

namespace perfbench
{

using namespace pimstm;
using hostapp::CrossShardTx;
using hostapp::KvOp;

namespace
{

hostapp::DistributedKvConfig
fleetConfig(const RankKvBackend::Config &c)
{
    // serve_kv's fleet shape: small shards, 4 tasklets, NOrec/WRAM.
    hostapp::DistributedKvConfig k;
    k.shards = c.shards;
    k.capacity_per_shard = 256;
    k.tasklets_per_dpu = c.tasklets;
    k.mram_bytes = 1 << 20;
    k.seed = deriveSeed(c.seed, 0x6b76 /* "kv" */);
    return k;
}

u64
launchRounds(const hostapp::TwoPcStats &s)
{
    return s.prepare_rounds + s.commit_rounds;
}

} // namespace

RankKvBackend::RankKvBackend(const Config &cfg, Tracer &tracer)
    : cfg_(cfg), tracer_(tracer),
      span_round_(tracer.nameId("backend.executeRound")),
      span_execute_(tracer.nameId("hostapp.execute")),
      kv_(fleetConfig(cfg)), at_second_(cfg.ranks, 0)
{
    std::vector<KvOp> preload;
    preload.reserve(cfg_.ranks);
    for (u32 r = 0; r < cfg_.ranks; ++r)
        preload.push_back(KvOp::put(keyOf(r, false), 0x10000u + r));
    kv_.execute(preload);
    base_ = kv_.stats();
    base_stm_ = stmDelta();
}

u32
RankKvBackend::keyOf(u32 rank, bool second) const
{
    return rank + 1 + (second ? cfg_.ranks : 0);
}

unsigned
RankKvBackend::shardOf(const runtime::ServingRequest &r) const
{
    return kv_.shardOf(keyOf(r.key, false));
}

runtime::RoundCost
RankKvBackend::executeRound(
    const std::vector<std::vector<runtime::ServingRequest>> &batches)
{
    Tracer::Scope span(tracer_, span_round_);

    std::vector<u8> touched(cfg_.ranks, 0);
    for (const auto &batch : batches)
        for (const auto &r : batch)
            if (r.op != kKvMove)
                touched[r.key] = 1;

    // Call 1: reads, writes and the moves of ranks nobody reads or
    // writes this round. Call 2: the moves of the other ranks. A
    // rank's moves all land in one call, each starting from where the
    // previous one leaves the rank; a move that finds its source gone
    // fails its predicate (a semantic outcome, not an error).
    std::vector<KvOp> ops;
    std::vector<CrossShardTx> txs[2];
    std::vector<u32> tx_ranks[2];
    std::vector<u8> flips(cfg_.ranks, 0);
    for (const auto &batch : batches) {
        for (const auto &r : batch) {
            const u32 rank = r.key;
            switch (r.op) {
              case kKvGet:
                ops.push_back(KvOp::get(keyOf(rank, at_second_[rank])));
                ++c_.gets;
                break;
              case kKvPut:
                ops.push_back(
                    KvOp::put(keyOf(rank, at_second_[rank]), r.value | 1));
                ++c_.puts;
                break;
              default: {
                const bool from = (at_second_[rank] ^ flips[rank]) != 0;
                flips[rank] ^= 1;
                const int call = touched[rank] ? 1 : 0;
                txs[call].push_back(CrossShardTx::move(
                    keyOf(rank, from), keyOf(rank, !from)));
                tx_ranks[call].push_back(rank);
                ++c_.moves;
                break;
              }
            }
        }
    }

    std::vector<double> busy(kv_.numShards(), 0.0);
    runtime::RoundCost cost;
    const double e0 = kv_.elapsedSeconds();
    runCall(ops, txs[0], tx_ranks[0], busy);
    runCall({}, txs[1], tx_ranks[1], busy);
    cost.round_seconds = kv_.elapsedSeconds() - e0;
    cost.shard_busy_seconds = std::move(busy);
    return cost;
}

void
RankKvBackend::runCall(const std::vector<KvOp> &ops,
                       const std::vector<CrossShardTx> &txs,
                       const std::vector<u32> &tx_ranks,
                       std::vector<double> &round_busy)
{
    if (ops.empty() && txs.empty())
        return;
    const unsigned shards = kv_.numShards();
    std::vector<double> busy0(shards);
    for (unsigned s = 0; s < shards; ++s)
        busy0[s] = kv_.shardBusySeconds(s);
    const double e0 = kv_.elapsedSeconds();
    const u64 launches0 = launchRounds(kv_.stats());

    hostapp::KvBatchResult res;
    {
        Tracer::Scope span(tracer_, span_execute_);
        res = kv_.execute(ops, txs);
    }

    // Every rank is always present at the key it was addressed by, so
    // a missed get or a refused put is a store error.
    for (const auto &r : res.ops)
        c_.errors += r.ok ? 0 : 1;
    for (size_t i = 0; i < txs.size(); ++i) {
        if (res.txs[i].committed) {
            at_second_[tx_ranks[i]] ^= 1;
            ++c_.moves_committed;
        }
    }

    const double makespan = kv_.elapsedSeconds() - e0;
    double max_busy = 0;
    double sum_busy = 0;
    unsigned involved = 0;
    for (unsigned s = 0; s < shards; ++s) {
        const double d = kv_.shardBusySeconds(s) - busy0[s];
        round_busy[s] += d;
        if (d > 0) {
            ++involved;
            sum_busy += d;
            max_busy = std::max(max_busy, d);
        }
    }
    ++c_.executes;
    c_.launches += launchRounds(kv_.stats()) - launches0;
    c_.involved_shards += involved;
    c_.round_sim_s += makespan;
    c_.link_sim_s += makespan - max_busy;
    if (involved > 0)
        c_.slowest_ratio_sum += max_busy / (sum_busy / involved);
}

u64
RankKvBackend::verifyEndState() const
{
    u64 violations = 0;
    for (u32 r = 0; r < cfg_.ranks; ++r) {
        u32 v = 0;
        const bool first = kv_.peek(keyOf(r, false), v);
        const bool second = kv_.peek(keyOf(r, true), v);
        if (first == second || second != (at_second_[r] != 0))
            ++violations;
    }
    if (kv_.population() != cfg_.ranks)
        ++violations;
    if (kv_.livePins() != 0)
        ++violations;
    return violations;
}

core::StmStats
RankKvBackend::stmDelta()
{
    core::StmStats total;
    for (unsigned s = 0; s < kv_.numShards(); ++s)
        total += kv_.shardStm(s).aggregateStats();
    // StmStats is all counters; subtract field by field through its
    // unique object representation.
    static_assert(std::has_unique_object_representations_v<core::StmStats>);
    constexpr size_t n = sizeof(core::StmStats) / sizeof(u64);
    u64 a[n], b[n];
    std::memcpy(a, &total, sizeof a);
    std::memcpy(b, &base_stm_, sizeof b);
    for (size_t i = 0; i < n; ++i)
        a[i] -= b[i];
    std::memcpy(&total, a, sizeof a);
    return total;
}

hostapp::TwoPcStats
RankKvBackend::twoPcDelta() const
{
    hostapp::TwoPcStats d = kv_.stats();
    d.batches -= base_.batches;
    d.prepare_rounds -= base_.prepare_rounds;
    d.commit_rounds -= base_.commit_rounds;
    d.tx_commits -= base_.tx_commits;
    d.tx_predicate_fails -= base_.tx_predicate_fails;
    d.tx_conflict_retries -= base_.tx_conflict_retries;
    d.serial_fallbacks -= base_.serial_fallbacks;
    d.deferred_ops -= base_.deferred_ops;
    d.bytes_down -= base_.bytes_down;
    d.bytes_up -= base_.bytes_up;
    d.shard_busy_seconds -= base_.shard_busy_seconds;
    d.shard_capacity_seconds -= base_.shard_capacity_seconds;
    return d;
}

} // namespace perfbench
