// Collective operations for simmpi, built on point-to-point messages with
// binomial-tree algorithms (logarithmic depth, like the cross-process
// reduction of paper §IV-C).
#include "runtime.hpp"

#include <algorithm>
#include <cstring>

namespace calib::simmpi {

namespace {

// reserved tag space for collectives (user code should use tags < 2^24)
constexpr int tag_bcast  = 0x7f000001;
constexpr int tag_reduce = 0x7f000002;
constexpr int tag_gather = 0x7f000003;

double combine(double a, double b, Comm::ReduceOp op) {
    switch (op) {
    case Comm::ReduceOp::Sum: return a + b;
    case Comm::ReduceOp::Min: return std::min(a, b);
    case Comm::ReduceOp::Max: return std::max(a, b);
    }
    return a;
}

std::uint64_t combine(std::uint64_t a, std::uint64_t b, Comm::ReduceOp op) {
    switch (op) {
    case Comm::ReduceOp::Sum: return a + b;
    case Comm::ReduceOp::Min: return std::min(a, b);
    case Comm::ReduceOp::Max: return std::max(a, b);
    }
    return a;
}

/// binomial_reduce() of one value to rank 0. Non-root ranks return their
/// partial value only (callers forward or bcast if needed).
template <typename T>
T reduce_value(Comm& comm, T value, Comm::ReduceOp op) {
    binomial_reduce(
        comm, 0, tag_reduce,
        [&value] {
            std::vector<std::byte> bytes(sizeof(T));
            std::memcpy(bytes.data(), &value, sizeof(T));
            return bytes;
        },
        [&value, op](std::span<const std::byte> bytes) {
            T other{};
            std::memcpy(&other, bytes.data(), std::min(bytes.size(), sizeof(T)));
            value = combine(value, other, op);
        });
    return value;
}

} // namespace

void binomial_reduce(Comm& comm, int root, int tag,
                     const std::function<std::vector<std::byte>()>& payload,
                     const std::function<void(std::span<const std::byte>)>& fold) {
    const int size  = comm.size();
    const int vrank = (comm.rank() - root + size) % size;
    for (int step = 1; step < size; step <<= 1) {
        if (vrank & step) {
            comm.send((vrank - step + root) % size, tag, payload());
            return; // this rank's partial is on its way up the tree
        }
        if (vrank + step < size)
            fold(comm.recv((vrank + step + root) % size, tag).payload);
    }
}

void Comm::bcast(std::vector<std::byte>& data, int root) {
    const int size = this->size();
    if (size == 1)
        return;
    // rotate so the root is rank 0 in the algorithm's rank space
    const int vrank = (rank_ - root + size) % size;

    if (vrank != 0) {
        Message m = recv(any_source, tag_bcast);
        data      = std::move(m.payload);
    }
    // forward to children: vrank + 2^k for 2^k > vrank
    int mask = 1;
    while (mask <= vrank)
        mask <<= 1;
    for (; mask < size; mask <<= 1) {
        const int vchild = vrank + mask;
        if (vchild < size)
            send((vchild + root) % size, tag_bcast,
                 std::span<const std::byte>(data.data(), data.size()));
    }
}

double Comm::reduce(double value, ReduceOp op, int root) {
    const double partial = reduce_value(*this, value, op);
    if (root == 0)
        return partial;
    // forward the final value from rank 0 to the requested root
    if (rank_ == 0)
        send_value(root, tag_reduce, partial);
    if (rank_ == root)
        return recv_value<double>(0, tag_reduce);
    return partial;
}

double Comm::allreduce(double value, ReduceOp op) {
    const double partial = reduce_value(*this, value, op);
    std::vector<std::byte> buf(sizeof(double));
    if (rank_ == 0)
        std::memcpy(buf.data(), &partial, sizeof(double));
    bcast(buf, 0);
    double out;
    std::memcpy(&out, buf.data(), sizeof(double));
    return out;
}

std::uint64_t Comm::reduce(std::uint64_t value, ReduceOp op, int root) {
    const std::uint64_t partial = reduce_value(*this, value, op);
    if (root == 0)
        return partial;
    if (rank_ == 0)
        send_value(root, tag_reduce, partial);
    if (rank_ == root)
        return recv_value<std::uint64_t>(0, tag_reduce);
    return partial;
}

std::uint64_t Comm::allreduce(std::uint64_t value, ReduceOp op) {
    const std::uint64_t partial = reduce_value(*this, value, op);
    std::vector<std::byte> buf(sizeof(std::uint64_t));
    if (rank_ == 0)
        std::memcpy(buf.data(), &partial, sizeof(std::uint64_t));
    bcast(buf, 0);
    std::uint64_t out;
    std::memcpy(&out, buf.data(), sizeof(std::uint64_t));
    return out;
}

std::vector<std::vector<std::byte>> Comm::gather(std::span<const std::byte> payload,
                                                 int root) {
    std::vector<std::vector<std::byte>> out;
    if (rank_ == root) {
        out.resize(size());
        out[rank_].assign(payload.begin(), payload.end());
        for (int i = 0; i < size() - 1; ++i) {
            Message m = recv(any_source, tag_gather);
            out[m.src] = std::move(m.payload);
        }
    } else {
        send(root, tag_gather, payload);
    }
    return out;
}

} // namespace calib::simmpi
