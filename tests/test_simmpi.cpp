// simmpi message-passing runtime tests: point-to-point semantics,
// wildcards, barrier, and collectives, swept over rank counts including
// non-powers of two.
#include "engine/merge_strategy.hpp"
#include "mpisim/runtime.hpp"
#include "mpisim/wrapper.hpp"
#include "runtime/caliper.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <random>

using namespace calib::simmpi;

namespace {

std::span<const std::byte> bytes_of(const std::string& s) {
    return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::string string_of(const Message& m) {
    return {reinterpret_cast<const char*>(m.payload.data()), m.payload.size()};
}

} // namespace

TEST(SimMpi, RunSpawnsCorrectRanks) {
    std::atomic<int> sum{0};
    run(5, [&sum](Comm& comm) {
        EXPECT_EQ(comm.size(), 5);
        sum += comm.rank();
    });
    EXPECT_EQ(sum.load(), 0 + 1 + 2 + 3 + 4);
}

TEST(SimMpi, RunRejectsInvalidCounts) {
    EXPECT_THROW(run(0, [](Comm&) {}), std::invalid_argument);
}

TEST(SimMpi, RankExceptionsPropagate) {
    EXPECT_THROW(run(3,
                     [](Comm& comm) {
                         if (comm.rank() == 1)
                             throw std::runtime_error("rank 1 fails");
                     }),
                 std::runtime_error);
}

TEST(SimMpi, PointToPointDelivery) {
    run(2, [](Comm& comm) {
        if (comm.rank() == 0) {
            comm.send(1, 5, bytes_of("hello"));
        } else {
            Message m = comm.recv(0, 5);
            EXPECT_EQ(string_of(m), "hello");
            EXPECT_EQ(m.src, 0);
            EXPECT_EQ(m.tag, 5);
        }
    });
}

TEST(SimMpi, TagMatchingHoldsBackOtherTags) {
    run(2, [](Comm& comm) {
        if (comm.rank() == 0) {
            comm.send(1, 1, bytes_of("first"));
            comm.send(1, 2, bytes_of("second"));
        } else {
            // receive tag 2 first even though tag 1 arrived earlier
            EXPECT_EQ(string_of(comm.recv(0, 2)), "second");
            EXPECT_EQ(string_of(comm.recv(0, 1)), "first");
        }
    });
}

TEST(SimMpi, WildcardSourceAndTag) {
    run(3, [](Comm& comm) {
        if (comm.rank() != 0) {
            comm.send_value(0, comm.rank(), comm.rank() * 10);
        } else {
            int sum = 0;
            for (int i = 0; i < 2; ++i)
                sum += comm.recv_value<int>(any_source, any_tag);
            EXPECT_EQ(sum, 30);
        }
    });
}

TEST(SimMpi, IprobeSeesQueuedMessages) {
    run(2, [](Comm& comm) {
        if (comm.rank() == 0) {
            comm.send_value(1, 3, 42);
            comm.barrier();
        } else {
            comm.barrier(); // message definitely sent now
            EXPECT_TRUE(comm.iprobe(0, 3));
            EXPECT_FALSE(comm.iprobe(0, 99));
            EXPECT_EQ(comm.recv_value<int>(0, 3), 42);
            EXPECT_FALSE(comm.iprobe());
        }
    });
}

TEST(SimMpi, SendToInvalidRankThrows) {
    run(2, [](Comm& comm) {
        if (comm.rank() == 0) {
            EXPECT_THROW(comm.send_value(7, 0, 1), std::out_of_range);
        }
    });
}

TEST(SimMpi, MessageStatisticsCount) {
    run(2, [](Comm& comm) {
        if (comm.rank() == 0) {
            comm.send(1, 0, bytes_of("abcd"));
            comm.send(1, 0, bytes_of("ef"));
            EXPECT_EQ(comm.messages_sent(), 2u);
            EXPECT_EQ(comm.bytes_sent(), 6u);
        } else {
            comm.recv();
            comm.recv();
        }
    });
}

class SimMpiCollectives : public ::testing::TestWithParam<int> {};

TEST_P(SimMpiCollectives, BarrierSynchronizesRepeatedly) {
    const int nprocs = GetParam();
    std::atomic<int> phase_sum{0};
    run(nprocs, [&phase_sum, nprocs](Comm& comm) {
        for (int phase = 0; phase < 10; ++phase) {
            phase_sum.fetch_add(1);
            comm.barrier();
            // after the barrier everyone observed all increments of this phase
            EXPECT_GE(phase_sum.load(), (phase + 1) * nprocs);
            comm.barrier();
        }
    });
    EXPECT_EQ(phase_sum.load(), 10 * nprocs);
}

TEST_P(SimMpiCollectives, BcastFromEveryRoot) {
    const int nprocs = GetParam();
    run(nprocs, [nprocs](Comm& comm) {
        for (int root = 0; root < nprocs; ++root) {
            std::vector<std::byte> data;
            if (comm.rank() == root) {
                const std::string payload = "root-" + std::to_string(root);
                data.assign(reinterpret_cast<const std::byte*>(payload.data()),
                            reinterpret_cast<const std::byte*>(payload.data()) +
                                payload.size());
            }
            comm.bcast(data, root);
            EXPECT_EQ(std::string(reinterpret_cast<const char*>(data.data()),
                                  data.size()),
                      "root-" + std::to_string(root));
            comm.barrier();
        }
    });
}

TEST_P(SimMpiCollectives, AllreduceSumMinMax) {
    const int nprocs = GetParam();
    run(nprocs, [nprocs](Comm& comm) {
        const double r = static_cast<double>(comm.rank());
        EXPECT_DOUBLE_EQ(comm.allreduce(r, Comm::ReduceOp::Sum),
                         nprocs * (nprocs - 1) / 2.0);
        EXPECT_DOUBLE_EQ(comm.allreduce(r, Comm::ReduceOp::Min), 0.0);
        EXPECT_DOUBLE_EQ(comm.allreduce(r, Comm::ReduceOp::Max),
                         static_cast<double>(nprocs - 1));
        const std::uint64_t u = comm.rank() + 1;
        EXPECT_EQ(comm.allreduce(u, Comm::ReduceOp::Sum),
                  static_cast<std::uint64_t>(nprocs) * (nprocs + 1) / 2);
    });
}

TEST_P(SimMpiCollectives, ReduceToNonZeroRoot) {
    const int nprocs = GetParam();
    if (nprocs < 2)
        GTEST_SKIP();
    run(nprocs, [nprocs](Comm& comm) {
        const double v = comm.reduce(1.0, Comm::ReduceOp::Sum, 1);
        if (comm.rank() == 1) {
            EXPECT_DOUBLE_EQ(v, static_cast<double>(nprocs));
        }
    });
}

TEST_P(SimMpiCollectives, GatherCollectsInRankOrder) {
    const int nprocs = GetParam();
    run(nprocs, [nprocs](Comm& comm) {
        const std::string payload(static_cast<std::size_t>(comm.rank()) + 1,
                                  static_cast<char>('a' + comm.rank() % 26));
        auto gathered = comm.gather(bytes_of(payload), 0);
        if (comm.rank() == 0) {
            ASSERT_EQ(gathered.size(), static_cast<std::size_t>(nprocs));
            for (int r = 0; r < nprocs; ++r)
                EXPECT_EQ(gathered[r].size(), static_cast<std::size_t>(r) + 1);
        } else {
            EXPECT_TRUE(gathered.empty());
        }
    });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, SimMpiCollectives,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16));

TEST(SimMpi, BinomialReduceFoldsInEngineOrder) {
    // merge(a, b) = "(a b)" is neither commutative nor associative, so the
    // root's string spells out the whole fold DAG: which partial merged
    // into which, and when
    const auto merge = [](std::string& into, std::string_view from) {
        into = "(" + into + " " + std::string(from) + ")";
    };
    for (int nprocs : {1, 2, 3, 5, 8, 13}) {
        for (int root : {0, nprocs - 1}) {
            std::string got;
            run(nprocs, [&](Comm& comm) {
                std::string acc = std::to_string(comm.rank());
                binomial_reduce(
                    comm, root, /*tag=*/7,
                    [&acc] {
                        const std::span<const std::byte> b = bytes_of(acc);
                        return std::vector<std::byte>(b.begin(), b.end());
                    },
                    [&](std::span<const std::byte> payload) {
                        merge(acc, {reinterpret_cast<const char*>(payload.data()),
                                    payload.size()});
                    });
                if (comm.rank() == root)
                    got = acc;
            });
            // the engine's phase-2 schedule over the rank list rotated to
            // start at the root
            std::vector<std::string> want;
            for (int i = 0; i < nprocs; ++i)
                want.push_back(std::to_string((root + i) % nprocs));
            calib::engine::fold_stride_doubling(
                want.size(), [&](std::size_t into, std::size_t from) {
                    merge(want[into], want[from]);
                });
            EXPECT_EQ(got, want.front()) << nprocs << " ranks, root " << root;
        }
    }
}

TEST(CaliCommWrapper, AnnotatesMpiFunctions) {
    using calib::Caliper;
    using calib::RecordMap;
    using calib::RuntimeConfig;

    Caliper& c       = Caliper::instance();
    calib::Channel* channel = c.create_channel(
        "mpi-wrap", RuntimeConfig{{"services.enable", "event,aggregate"},
                                  {"aggregate.key", "mpi.function,mpi.rank"},
                                  {"aggregate.ops", "count"}});

    std::mutex mutex;
    std::vector<RecordMap> all;
    run(2, [&](Comm& raw) {
        CaliComm comm(raw);
        comm.barrier();
        comm.allreduce(1.0, Comm::ReduceOp::Sum);
        comm.barrier();
        std::vector<RecordMap> mine;
        Caliper::instance().flush_thread(channel, [&mine](RecordMap&& r) {
            mine.push_back(std::move(r));
        });
        std::lock_guard<std::mutex> lock(mutex);
        for (RecordMap& r : mine)
            all.push_back(std::move(r));
    });
    c.close_channel(channel);

    double barrier_count = 0, allreduce_count = 0;
    for (const RecordMap& r : all) {
        if (r.get("mpi.function") == calib::Variant("MPI_Barrier"))
            barrier_count += r.get("count").to_double();
        if (r.get("mpi.function") == calib::Variant("MPI_Allreduce"))
            allreduce_count += r.get("count").to_double();
    }
    EXPECT_EQ(barrier_count, 4.0) << "2 ranks x 2 barriers (end events)";
    EXPECT_EQ(allreduce_count, 2.0);
}

TEST(SimMpi, PerPairFifoOrderingUnderStorm) {
    // messages between a fixed (src, dst, tag) pair must arrive in send
    // order even under a concurrent storm from other ranks
    constexpr int n_msgs = 500;
    run(4, [](Comm& comm) {
        if (comm.rank() == 0) {
            int expected[4] = {0, 0, 0, 0};
            for (int i = 0; i < 3 * n_msgs; ++i) {
                Message m = comm.recv(any_source, 7);
                int seq;
                std::memcpy(&seq, m.payload.data(), sizeof(int));
                EXPECT_EQ(seq, expected[m.src]++)
                    << "out-of-order from rank " << m.src;
            }
        } else {
            for (int seq = 0; seq < n_msgs; ++seq)
                comm.send_value(0, 7, seq);
        }
    });
}

TEST(SimMpi, RandomizedTagMatchingStress) {
    // interleave sends with many tags; the receiver drains them in a
    // shuffled tag order and must get exactly the right payload per tag
    run(2, [](Comm& comm) {
        constexpr int n_tags = 64;
        if (comm.rank() == 0) {
            for (int t = 0; t < n_tags; ++t)
                comm.send_value(1, t, t * 1000 + 7);
        } else {
            std::mt19937 rng(99);
            std::vector<int> tags(n_tags);
            std::iota(tags.begin(), tags.end(), 0);
            std::shuffle(tags.begin(), tags.end(), rng);
            for (int t : tags)
                EXPECT_EQ(comm.recv_value<int>(0, t), t * 1000 + 7);
            EXPECT_FALSE(comm.iprobe()) << "mailbox fully drained";
        }
    });
}
