/**
 * @file
 * The benchmark's KV serving backend: a DistributedKv fleet in which
 * every popularity rank lives at exactly one key. Rank r owns two
 * keys, r+1 and r+1+ranks; gets and puts go to the one it currently
 * occupies, and a committed movek relocates it to the other. So a
 * move's destination is always free and its source always present,
 * and its two-phase commit does real work instead of failing its
 * predicate. A rank's relocation never shares a launch with reads or
 * writes of the same rank: those moves go in a second execute() of
 * the round, so a deferred put can never re-create the old key.
 */

#ifndef PERFBENCH_KV_BACKEND_HH
#define PERFBENCH_KV_BACKEND_HH

#include <vector>

#include "hostapp/distributed_kv.hh"
#include "probe.hh"
#include "runtime/serving.hh"

namespace perfbench
{

using pimstm::u32;

/** Op classes of the KV request stream (StreamConfig::op_weights). */
enum KvOpClass : pimstm::u8
{
    kKvGet = 0,
    kKvPut = 1,
    kKvMove = 2,
};

/** Counters of what the backend observed through the public API. */
struct KvBackendCounters
{
    u64 executes = 0;       ///< DistributedKv::execute calls
    u64 launches = 0;       ///< launch rounds (prepare + decision)
    u64 involved_shards = 0; ///< summed over executes
    u64 gets = 0;
    u64 puts = 0;
    u64 moves = 0;
    u64 moves_committed = 0;
    u64 errors = 0;          ///< missed gets, refused puts
    double round_sim_s = 0;  ///< summed simulated round makespans
    double link_sim_s = 0;   ///< summed (makespan - slowest shard busy)
    double slowest_ratio_sum = 0; ///< summed max/mean involved busy
};

class RankKvBackend : public pimstm::runtime::ServingBackend
{
  public:
    struct Config
    {
        unsigned shards = 64;
        unsigned tasklets = 4;
        u32 ranks = 2048;
        u64 seed = 1;
    };

    /** Builds the fleet and preloads every rank at its first key. */
    RankKvBackend(const Config &cfg, Tracer &tracer);

    unsigned numShards() const override { return kv_.numShards(); }

    /** Queue by the rank's first key: stable for the request's life,
     * wherever a move has taken the rank since. */
    unsigned shardOf(const pimstm::runtime::ServingRequest &r)
        const override;

    pimstm::runtime::RoundCost
    executeRound(const std::vector<std::vector<
                     pimstm::runtime::ServingRequest>> &batches) override;

    /**
     * End-state check: every rank is present at exactly the key the
     * backend tracked, the store holds exactly one key per rank and
     * no pin is left. Returns the number of violations.
     */
    u64 verifyEndState() const;

    const KvBackendCounters &counters() const { return c_; }

    /** 2PC statistics since the preload. */
    pimstm::hostapp::TwoPcStats twoPcDelta() const;

    /** STM statistics of all shards since the preload. */
    pimstm::core::StmStats stmDelta();

    const pimstm::hostapp::DistributedKv &kv() const { return kv_; }

  private:
    u32 keyOf(u32 rank, bool second) const;
    void runCall(const std::vector<pimstm::hostapp::KvOp> &ops,
                 const std::vector<pimstm::hostapp::CrossShardTx> &txs,
                 const std::vector<u32> &tx_ranks,
                 std::vector<double> &round_busy);

    Config cfg_;
    Tracer &tracer_;
    int span_round_;
    int span_execute_;
    pimstm::hostapp::DistributedKv kv_;
    pimstm::hostapp::TwoPcStats base_;
    pimstm::core::StmStats base_stm_;
    std::vector<pimstm::u8> at_second_; ///< per rank: lives at key two
    KvBackendCounters c_;
};

} // namespace perfbench

#endif // PERFBENCH_KV_BACKEND_HH
