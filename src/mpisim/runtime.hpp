// simmpi: a thread-backed MPI-like message-passing runtime.
//
// Substitute for a real MPI installation (see DESIGN.md): each "rank" is a
// thread with private state; ranks communicate only through typed byte
// messages, so message-passing semantics (and the aggregation system's
// cross-process code paths) are exercised for real. The API subset mirrors
// what the paper's system needs: point-to-point send/recv, barrier, bcast,
// reduce/allreduce, gather.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

namespace calib::simmpi {

inline constexpr int any_source = -1;
inline constexpr int any_tag    = -1;

struct Message {
    int src = any_source;
    int tag = any_tag;
    std::vector<std::byte> payload;
};

class World;

/// Communicator handle passed to each rank's function.
class Comm {
public:
    Comm(World* world, int rank) : world_(world), rank_(rank) {}

    int rank() const noexcept { return rank_; }
    int size() const noexcept;

    // -- point-to-point -------------------------------------------------------
    void send(int dest, int tag, std::span<const std::byte> payload);
    void send(int dest, int tag, std::vector<std::byte>&& payload);

    /// Blocking receive; src/tag may be any_source/any_tag wildcards.
    Message recv(int src = any_source, int tag = any_tag);

    /// Non-blocking probe: true if a matching message is queued.
    bool iprobe(int src = any_source, int tag = any_tag);

    template <typename T>
    void send_value(int dest, int tag, const T& v) {
        static_assert(std::is_trivially_copyable_v<T>);
        send(dest, tag,
             std::span(reinterpret_cast<const std::byte*>(&v), sizeof(T)));
    }

    template <typename T>
    T recv_value(int src = any_source, int tag = any_tag) {
        static_assert(std::is_trivially_copyable_v<T>);
        Message m = recv(src, tag);
        T v{};
        std::memcpy(&v, m.payload.data(),
                    m.payload.size() < sizeof(T) ? m.payload.size() : sizeof(T));
        return v;
    }

    // -- collectives (see collectives.cpp) -------------------------------------
    void barrier();
    void bcast(std::vector<std::byte>& data, int root);

    enum class ReduceOp { Sum, Min, Max };
    double reduce(double value, ReduceOp op, int root);
    double allreduce(double value, ReduceOp op);
    std::uint64_t reduce(std::uint64_t value, ReduceOp op, int root);
    std::uint64_t allreduce(std::uint64_t value, ReduceOp op);

    /// Gather byte buffers to \a root; result[r] is rank r's contribution
    /// (empty vector on non-root ranks).
    std::vector<std::vector<std::byte>> gather(std::span<const std::byte> payload,
                                               int root);

    /// Bytes sent by this rank so far (for communication statistics).
    std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
    std::uint64_t messages_sent() const noexcept { return messages_sent_; }

private:
    World* world_;
    int rank_;
    std::uint64_t bytes_sent_    = 0;
    std::uint64_t messages_sent_ = 0;
};

/// The binomial-tree reduction to \a root that every simmpi reduction runs
/// (Comm::reduce/allreduce, parallel_query, reduce_channel). Ranks are
/// renumbered so \a root is vrank 0. At step 2^k (k = 0, 1, ...) a rank
/// whose vrank has bit k set sends payload() to vrank - 2^k on \a tag and
/// is done; every other rank hands the message from vrank + 2^k, when
/// that rank exists, to fold(). The root thus folds the rank list rotated
/// to start at \a root in the stride-doubling order of the engine's phase
/// 2 (engine::fold_stride_doubling). Collective: every rank calls it.
void binomial_reduce(Comm& comm, int root, int tag,
                     const std::function<std::vector<std::byte>()>& payload,
                     const std::function<void(std::span<const std::byte>)>& fold);

/// Run \a fn on \a nprocs rank-threads and join them. Exceptions thrown by
/// rank functions are captured and rethrown (first one wins).
void run(int nprocs, const std::function<void(Comm&)>& fn);

/// Internal shared state of one run.
class World {
public:
    explicit World(int size);

    int size() const noexcept { return size_; }

    void post(int dest, Message&& m);
    Message match(int rank, int src, int tag);
    bool probe(int rank, int src, int tag);
    void barrier();

private:
    struct Mailbox {
        std::mutex mutex;
        std::condition_variable cv;
        std::deque<Message> queue;
    };

    int size_;
    std::vector<std::unique_ptr<Mailbox>> mailboxes_;

    std::mutex barrier_mutex_;
    std::condition_variable barrier_cv_;
    int barrier_count_      = 0;
    std::uint64_t barrier_generation_ = 0;
};

} // namespace calib::simmpi
