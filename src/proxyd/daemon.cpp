#include "daemon.hpp"

#include "../io/caliwriter.hpp"
#include "../obs/metrics.hpp"
#include "../query/calql.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <chrono>

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

namespace calib::proxyd {

namespace {

obs::Counter proxyd_connections("proxyd.connections");
obs::Counter proxyd_shed_connections("proxyd.shed_connections");
obs::Counter proxyd_http_requests("proxyd.http_requests");

constexpr std::size_t kRecvChunk = 64 * 1024;

/// Per-connection read passes per event-loop iteration; bounds how long
/// one busy connection can hold the loop before others get a turn.
constexpr int kMaxRecvPassesPerEvent = 8;

/// Prometheus metric-name characters: [a-zA-Z0-9_:]; we map the rest to '_'.
std::string sanitize_metric(std::string_view name) {
    std::string out;
    out.reserve(name.size());
    for (const char c : name)
        out.push_back((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                              (c >= '0' && c <= '9') || c == '_' || c == ':'
                          ? c
                          : '_');
    if (!out.empty() && out[0] >= '0' && out[0] <= '9')
        out.insert(out.begin(), '_');
    return out;
}

/// Prometheus label-name characters: [a-zA-Z0-9_] — no ':', unlike
/// metric names.
std::string sanitize_label(std::string_view name) {
    std::string out;
    out.reserve(name.size());
    for (const char c : name)
        out.push_back((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                              (c >= '0' && c <= '9') || c == '_'
                          ? c
                          : '_');
    if (!out.empty() && out[0] >= '0' && out[0] <= '9')
        out.insert(out.begin(), '_');
    return out;
}

/// Prometheus label values escape backslash, quote, and newline.
std::string escape_label(std::string_view value) {
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        if (c == '\\' || c == '"')
            out.push_back('\\');
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out.push_back(c);
    }
    return out;
}

std::uint64_t steady_now_us() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::string format_number(const Variant& v) {
    switch (v.type()) {
    case Variant::Type::Int:
        return std::to_string(v.to_int());
    case Variant::Type::UInt:
        return std::to_string(v.to_uint());
    default: {
        std::ostringstream os;
        os << v.to_double();
        return os.str();
    }
    }
}

} // namespace

// ---------------------------------------------------------------- Connection

struct ProxyDaemon::Connection {
    enum class Kind { Ingest, Http };

    int fd = -1;
    Kind kind = Kind::Ingest;
    net::Socket socket;
    std::unique_ptr<IngestSession> session; // Ingest only

    std::vector<std::byte> tx;
    std::size_t tx_pos  = 0;
    bool close_after_tx = false;
    bool shed           = false; ///< outbound bound exceeded; drop it
    std::uint32_t events = 0;    ///< currently registered epoll events

    std::string http_req; // Http only: request bytes until header end

    std::size_t tx_pending() const noexcept { return tx.size() - tx_pos; }
};

// ---------------------------------------------------------------- lifecycle

ProxyDaemon::ProxyDaemon(DaemonOptions opts) : opts_(std::move(opts)) {}

ProxyDaemon::~ProxyDaemon() {
    conns_.clear();
    if (epoll_fd_ >= 0)
        ::close(epoll_fd_);
    if (stop_fd_ >= 0)
        ::close(stop_fd_);
    if (timer_fd_ >= 0)
        ::close(timer_fd_);
    ingest_listener_.close();
    tcp_listener_.close();
    http_listener_.close();
    if (!unix_path_.empty())
        ::unlink(unix_path_.c_str());
}

void ProxyDaemon::start() {
    if (opts_.listen.empty())
        throw std::runtime_error("calib-proxyd: no listen address");
    if (opts_.slide_us > 0 && opts_.window_us == 0)
        throw std::runtime_error("calib-proxyd: --slide without --window");
    if (opts_.slide_us > opts_.window_us)
        throw std::runtime_error(
            "calib-proxyd: slide is larger than the window duration");

    // fail fast on a bad daemon-global aggregate clause, before any
    // client's hello can trip over it
    if (!opts_.aggregate.empty()) {
        const QuerySpec spec = parse_calql(opts_.aggregate);
        if (!spec.has_aggregation())
            throw std::runtime_error("aggregate clause '" + opts_.aggregate +
                                     "' has no AGGREGATE/GROUP BY");
    }

    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0)
        throw std::runtime_error(std::string("epoll_create1: ") +
                                 std::strerror(errno));
    stop_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (stop_fd_ < 0)
        throw std::runtime_error(std::string("eventfd: ") + std::strerror(errno));
    timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
    if (timer_fd_ < 0)
        throw std::runtime_error(std::string("timerfd_create: ") +
                                 std::strerror(errno));

    const auto watch = [this](int fd) {
        epoll_event ev{};
        ev.events  = EPOLLIN;
        ev.data.fd = fd;
        if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0)
            throw std::runtime_error(std::string("epoll_ctl(add): ") +
                                     std::strerror(errno));
    };

    ingest_listener_ = net::listen_on(opts_.listen, &ingest_addr_);
    ingest_listener_.set_nonblocking(true);
    if (net::is_unix_address(opts_.listen))
        unix_path_ = net::unix_socket_path(opts_.listen);
    watch(ingest_listener_.fd());

    if (!opts_.listen_tcp.empty()) {
        tcp_listener_ = net::listen_on(opts_.listen_tcp, &tcp_addr_);
        tcp_listener_.set_nonblocking(true);
        watch(tcp_listener_.fd());
    }
    if (!opts_.http.empty()) {
        http_listener_ = net::listen_on(opts_.http, &http_addr_);
        http_listener_.set_nonblocking(true);
        watch(http_listener_.fd());
    }
    watch(stop_fd_);
    watch(timer_fd_);
    arm_timer(); // first slide tick for windowed channels
}

void ProxyDaemon::stop() noexcept {
    if (stop_fd_ >= 0) {
        const std::uint64_t one = 1;
        // async-signal-safe: a single write on an eventfd
        [[maybe_unused]] const ssize_t n = ::write(stop_fd_, &one, sizeof(one));
    }
}

void ProxyDaemon::begin_drain() {
    if (draining_)
        return;
    draining_ = true;
    // a negative timeout must not wrap into a far-future deadline
    const std::uint64_t drain_ms =
        opts_.drain_timeout_ms > 0
            ? static_cast<std::uint64_t>(opts_.drain_timeout_ms)
            : 0;
    deadline_ = obs::now_ns() + drain_ms * 1000000ull;
    const auto unwatch = [this](net::Socket& s) {
        if (s.valid()) {
            epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, s.fd(), nullptr);
            s.close();
        }
    };
    unwatch(ingest_listener_);
    unwatch(tcp_listener_);
    unwatch(http_listener_);
    if (!unix_path_.empty()) {
        ::unlink(unix_path_.c_str());
        unix_path_.clear();
    }
    arm_timer(); // the drain deadline is a timer deadline now
}

void ProxyDaemon::arm_timer() {
    if (timer_fd_ < 0)
        return;
    std::uint64_t delay_ns = 0; // 0 = disarm
    bool armed             = false;

    if (opts_.window_us > 0) {
        // next slide-tick boundary in the channel clock's timeline (the
        // injected test clock and the real timerfd clock tick at the same
        // rate for our purposes: the relative delay is what matters)
        const std::uint64_t slide =
            opts_.slide_us > 0 ? opts_.slide_us : opts_.window_us;
        const std::uint64_t now_us =
            opts_.clock ? opts_.clock() : steady_now_us();
        const std::uint64_t next_us = (now_us / slide + 1) * slide;
        delay_ns                    = (next_us - now_us) * 1000ull;
        armed                       = true;
    }
    if (draining_) {
        const std::uint64_t now_ns = obs::now_ns();
        const std::uint64_t drain_ns =
            deadline_ > now_ns ? deadline_ - now_ns : 1;
        if (!armed || drain_ns < delay_ns)
            delay_ns = drain_ns;
        armed = true;
    }

    itimerspec its{};
    if (armed) {
        if (delay_ns == 0)
            delay_ns = 1; // it_value = 0 would disarm instead of firing
        its.it_value.tv_sec  = static_cast<time_t>(delay_ns / 1000000000ull);
        its.it_value.tv_nsec = static_cast<long>(delay_ns % 1000000000ull);
    }
    timerfd_settime(timer_fd_, 0, &its, nullptr);
}

bool ProxyDaemon::on_timer() {
    for (auto& [name, ch] : channels_)
        ch->retire_expired();
    if (draining_ && obs::now_ns() >= deadline_)
        return false;
    arm_timer();
    return true;
}

void ProxyDaemon::run() {
    epoll_event events[64];
    bool deadline_passed = false;

    while (!deadline_passed && !(draining_ && conns_.empty())) {
        // one timerfd carries every time-based wakeup (slide ticks for
        // pane retirement, the drain deadline), so the wait itself can
        // block indefinitely without stalling either
        const int n = epoll_wait(epoll_fd_, events, 64, -1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error(std::string("epoll_wait: ") +
                                     std::strerror(errno));
        }

        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            if (fd == stop_fd_) {
                std::uint64_t drained;
                while (::read(stop_fd_, &drained, sizeof(drained)) > 0)
                    ;
                begin_drain();
                continue;
            }
            if (fd == timer_fd_) {
                std::uint64_t expirations;
                while (::read(timer_fd_, &expirations, sizeof(expirations)) > 0)
                    ;
                if (!on_timer())
                    deadline_passed = true;
                continue;
            }
            if (fd == ingest_listener_.fd() || fd == tcp_listener_.fd() ||
                fd == http_listener_.fd()) {
                handle_listener(fd);
                continue;
            }
            const auto it = conns_.find(fd);
            if (it != conns_.end())
                handle_connection(*it->second, events[i].events);
        }
    }

    // drain deadline passed: force-close whatever is left
    while (!conns_.empty())
        close_connection(*conns_.begin()->second);
}

// -------------------------------------------------------------- connections

void ProxyDaemon::handle_listener(int fd) {
    const bool is_http = fd == http_listener_.fd();
    for (;;) {
        const int cfd = accept4(fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (cfd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
                return;
            return; // transient accept failure; the listener stays armed
        }

        auto conn    = std::make_unique<Connection>();
        conn->fd     = cfd;
        conn->socket = net::Socket(cfd);
        conn->kind   = is_http ? Connection::Kind::Http : Connection::Kind::Ingest;

        if (!is_http) {
            Connection* raw = conn.get();
            IngestSession::Hooks hooks;
            hooks.open_channel = [this](const std::string& name, bool create) {
                return channel(name, create);
            };
            hooks.respond = [this, raw](std::uint8_t status,
                                        std::string_view body) {
                queue_result(*raw, status, body);
            };
            hooks.on_query = [this, raw](std::string_view calql) {
                ProxyChannel* ch = raw->session->channel();
                if (!ch) {
                    queue_result(*raw, 1, "no channel joined");
                    return;
                }
                bool ok                = false;
                const std::string body = ch->answer(calql, &ok);
                queue_result(*raw, ok ? 0 : 1, body);
            };
            conn->session =
                std::make_unique<IngestSession>(std::move(hooks),
                                                opts_.max_frame_bytes);
        }

        epoll_event ev{};
        ev.events  = EPOLLIN;
        ev.data.fd = cfd;
        if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, cfd, &ev) != 0)
            continue; // drops the connection (socket closes with conn)
        conn->events = EPOLLIN;

        ++connections_total_;
        proxyd_connections.add();
        conns_.emplace(cfd, std::move(conn));
    }
}

void ProxyDaemon::handle_connection(Connection& conn, std::uint32_t events) {
    if (events & EPOLLOUT) {
        if (!flush_tx(conn))
            return;
        if (conn.close_after_tx && conn.tx_pending() == 0) {
            close_connection(conn);
            return;
        }
    }
    if (!(events & EPOLLIN)) {
        // hup/err without readable data: nothing left to drain
        if (events & (EPOLLHUP | EPOLLERR))
            close_connection(conn);
        return;
    }

    char buf[kRecvChunk];
    // bounded reads per event-loop pass: EPOLLIN is level-triggered and
    // stays armed, so a client that streams faster than the daemon folds
    // round-robins with other connections (and the drain-deadline check)
    // instead of monopolizing the single-threaded loop
    for (int pass = 0; pass < kMaxRecvPassesPerEvent; ++pass) {
        const ssize_t n = conn.socket.recv_some(buf, sizeof(buf));
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                update_events(conn);
                return;
            }
            close_connection(conn);
            return;
        }
        if (n == 0) {
            // orderly EOF; every complete frame was already processed.
            // flush_tx may itself close the connection on a send error —
            // it returns false then, and conn is already destroyed
            if (!flush_tx(conn))
                return;
            close_connection(conn);
            return;
        }

        if (conn.kind == Connection::Kind::Http) {
            conn.http_req.append(buf, static_cast<std::size_t>(n));
            if (conn.http_req.size() > 16 * 1024) {
                close_connection(conn); // not a plausible scrape request
                return;
            }
            if (conn.http_req.find("\r\n\r\n") != std::string::npos) {
                handle_http_request(conn);
                if (!flush_tx(conn))
                    return;
                if (conn.tx_pending() == 0) {
                    close_connection(conn);
                    return;
                }
                conn.close_after_tx = true;
                update_events(conn);
                return;
            }
            continue;
        }

        const IngestSession::Status st =
            conn.session->feed(buf, static_cast<std::size_t>(n));
        if (conn.shed) {
            close_connection(conn);
            return;
        }
        if (!flush_tx(conn))
            return;
        if (st != IngestSession::Status::Ok) {
            if (conn.tx_pending() == 0) {
                close_connection(conn);
            } else {
                conn.close_after_tx = true;
                update_events(conn);
            }
            return;
        }
    }
}

void ProxyDaemon::handle_http_request(Connection& conn) {
    ++http_requests_;
    proxyd_http_requests.add();

    std::string_view req = conn.http_req;
    std::string_view path;
    if (req.rfind("GET ", 0) == 0) {
        const std::size_t sp = req.find(' ', 4);
        if (sp != std::string_view::npos)
            path = req.substr(4, sp - 4);
    }

    std::string body;
    const char* status = "200 OK";
    if (path == "/metrics" || path == "/") {
        body = scrape_text();
    } else if (path == "/healthz") {
        body = "ok\n";
    } else {
        status = path.empty() ? "400 Bad Request" : "404 Not Found";
        body   = "calib-proxyd: no such endpoint\n";
    }

    std::string head = "HTTP/1.0 ";
    head += status;
    head += "\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8"
            "\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n";
    queue_bytes(conn, head.data(), head.size());
    queue_bytes(conn, body.data(), body.size());
}

void ProxyDaemon::queue_result(Connection& conn, std::uint8_t status,
                               std::string_view body) {
    std::vector<std::byte> frame;
    net::append_result(frame, status, body);
    queue_bytes(conn, frame.data(), frame.size());
}

void ProxyDaemon::queue_bytes(Connection& conn, const void* data,
                              std::size_t len) {
    if (conn.shed)
        return;
    if (conn.tx_pending() + len > opts_.max_tx_bytes) {
        // slow reader: it stopped draining results; shed it rather than
        // buffer without bound
        conn.shed = true;
        ++shed_connections_;
        proxyd_shed_connections.add();
        return;
    }
    if (conn.tx_pos > 0 && conn.tx_pos == conn.tx.size()) {
        conn.tx.clear();
        conn.tx_pos = 0;
    }
    const auto* p = static_cast<const std::byte*>(data);
    conn.tx.insert(conn.tx.end(), p, p + len);
}

bool ProxyDaemon::flush_tx(Connection& conn) {
    while (conn.tx_pending() > 0) {
        const ssize_t n = ::send(conn.socket.fd(), conn.tx.data() + conn.tx_pos,
                                 conn.tx_pending(), MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                update_events(conn);
                return true;
            }
            close_connection(conn);
            return false;
        }
        conn.tx_pos += static_cast<std::size_t>(n);
    }
    conn.tx.clear();
    conn.tx_pos = 0;
    update_events(conn);
    return true;
}

void ProxyDaemon::update_events(Connection& conn) {
    std::uint32_t want = conn.close_after_tx ? 0 : EPOLLIN;
    if (conn.tx_pending() > 0)
        want |= EPOLLOUT;
    if (want == conn.events)
        return;
    epoll_event ev{};
    ev.events  = want;
    ev.data.fd = conn.fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0)
        conn.events = want;
}

void ProxyDaemon::close_connection(Connection& conn) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    const int fd = conn.fd;
    conns_.erase(fd); // destroys conn; the socket closes here
}

// ------------------------------------------------------------------ channels

ProxyChannel* ProxyDaemon::channel(const std::string& name, bool create) {
    const auto it = channels_.find(name);
    if (it != channels_.end())
        return it->second.get();
    if (!create)
        return nullptr; // query-only hello against a channel nobody fed
    try {
        WindowSpec window;
        window.duration_us = opts_.window_us;
        window.slide_us    = opts_.slide_us;
        auto ch = std::make_unique<ProxyChannel>(name, opts_.aggregate,
                                                 opts_.prealloc, window,
                                                 opts_.clock);
        return channels_.emplace(name, std::move(ch)).first->second.get();
    } catch (const std::exception&) {
        return nullptr; // rejects the client's hello
    }
}

std::vector<const ProxyChannel*> ProxyDaemon::channels() const {
    std::vector<const ProxyChannel*> out;
    out.reserve(channels_.size());
    for (const auto& [name, ch] : channels_)
        out.push_back(ch.get());
    return out;
}

ProxyDaemon::Stats ProxyDaemon::stats() const {
    Stats s;
    s.connections_total = connections_total_;
    s.shed_connections  = shed_connections_;
    s.http_requests     = http_requests_;
    for (const auto& [name, ch] : channels_)
        s.records += ch->records();
    return s;
}

// -------------------------------------------------------------------- scrape

std::string ProxyDaemon::scrape_text() const {
    std::ostringstream os;
    os << "# calib-proxyd metrics (Prometheus text exposition)\n";

    for (const obs::Sample& s : obs::MetricsRegistry::instance().snapshot()) {
        const std::string name = "calib_" + sanitize_metric(s.name);
        switch (s.kind) {
        case obs::Kind::Counter:
            os << "# TYPE " << name << "_total counter\n"
               << name << "_total " << s.value << "\n";
            break;
        case obs::Kind::Gauge:
            os << "# TYPE " << name << " gauge\n" << name << " " << s.value << "\n";
            break;
        case obs::Kind::Timer:
            os << "# TYPE " << name << "_seconds_count counter\n"
               << name << "_seconds_count " << s.count << "\n"
               << "# TYPE " << name << "_seconds_sum counter\n"
               << name << "_seconds_sum " << static_cast<double>(s.total_ns) / 1e9
               << "\n";
            break;
        case obs::Kind::Histogram:
            // proper Prometheus histogram series: cumulative _bucket
            // counts with `le` bounds (the log2 bucket upper bounds),
            // a catch-all +Inf bucket, then _sum and _count
            os << "# TYPE " << name << " histogram\n";
            for (const auto& [le, cumulative] : s.buckets)
                os << name << "_bucket{le=\"" << le << "\"} " << cumulative
                   << "\n";
            os << name << "_bucket{le=\"+Inf\"} " << s.count << "\n"
               << name << "_sum " << s.total_ns << "\n"
               << name << "_count " << s.count << "\n";
            break;
        }
    }

    for (const auto& [cname, ch] : channels_) {
        const std::string label = "{channel=\"" + escape_label(cname) + "\"}";
        os << "calib_channel_records_total" << label << " " << ch->records()
           << "\n"
           << "calib_channel_groups" << label << " " << ch->groups() << "\n"
           << "calib_channel_bytes" << label << " " << ch->bytes() << "\n"
           << "calib_channel_clients_total" << label << " " << ch->clients_total
           << "\n";
        if (ch->windowed()) {
            // per-window gauges: the live pane ring's shape and contents
            os << "calib_channel_window_seconds" << label << " "
               << static_cast<double>(ch->window().duration_us) / 1e6 << "\n"
               << "calib_channel_window_slide_seconds" << label << " "
               << static_cast<double>(ch->window().slide()) / 1e6 << "\n"
               << "calib_channel_window_live_panes" << label << " "
               << ch->live_panes() << "\n"
               << "calib_channel_window_live_records" << label << " "
               << ch->live_records() << "\n"
               << "calib_channel_window_retired_panes_total" << label << " "
               << ch->retired_panes() << "\n";
        }
    }

    // channel contents as labeled series: string-valued entries become
    // labels, numeric entries become one series each
    std::size_t series  = 0;
    std::size_t omitted = 0;
    for (const auto& [cname, ch] : channels_) {
        for (const ProxyChannel::Row& row : ch->rows()) {
            std::string labels = "channel=\"" + escape_label(cname) + "\"";
            // distinct attribute names may sanitize to the same label name
            // ('a.b' vs 'a_b'); a duplicate label within one series makes
            // Prometheus reject the whole scrape, so suffix collisions
            std::vector<std::string> used{"channel"};
            for (const auto& [attr, value] : row.record) {
                if (value.is_numeric())
                    continue;
                std::string lname = sanitize_label(attr);
                for (int suffix = 2;
                     std::find(used.begin(), used.end(), lname) != used.end();
                     ++suffix)
                    lname = sanitize_label(attr) + "_" + std::to_string(suffix);
                used.push_back(lname);
                labels += "," + lname + "=\"" +
                          escape_label(value.to_string()) + "\"";
            }
            for (const auto& [attr, value] : row.record) {
                if (!value.is_numeric())
                    continue;
                if (series >= opts_.scrape_max_series) {
                    ++omitted;
                    continue;
                }
                ++series;
                os << "calib_data_" << sanitize_metric(attr) << "{" << labels
                   << "} " << format_number(value) << "\n";
            }
            if (ch->exact()) {
                if (series >= opts_.scrape_max_series) {
                    ++omitted;
                } else {
                    ++series;
                    os << "calib_data_count{" << labels << "} " << row.weight
                       << "\n";
                }
            }
        }
    }
    if (omitted > 0)
        os << "# calib: truncated, omitted " << omitted
           << " data series (scrape_max_series=" << opts_.scrape_max_series
           << ")\n";
    return os.str();
}

// --------------------------------------------------------------- final flush

void ProxyDaemon::write_flush_files(const std::string& pattern) const {
    for (const auto& [cname, ch] : channels_) {
        std::string path = pattern;
        const std::size_t pos = path.find("%c");
        if (pos != std::string::npos)
            path.replace(pos, 2, cname);

        std::ofstream os(path, std::ios::binary);
        if (!os)
            throw std::runtime_error("cannot write " + path);
        CaliWriter writer(os);
        for (const ProxyChannel::Row& row : ch->rows()) {
            if (!ch->exact()) {
                writer.write_record(row.record);
                continue;
            }
            RecordMap rm = row.record;
            const Variant* have = rm.find("count");
            std::uint64_t merged = 0;
            if (!have) {
                rm.append("count", Variant(row.weight));
            } else if (((have->type() == Variant::Type::Int && have->as_int() >= 0) ||
                        have->type() == Variant::Type::UInt) &&
                       !__builtin_mul_overflow(have->to_uint(), row.weight, &merged)) {
                // the record already collapses N snapshots (aggregate-
                // service output); seen `weight` times it stands for
                // N*weight — merge rather than emit a duplicate column
                rm.set("count", Variant(merged));
            } else {
                // a count that cannot merge exactly (non-numeric, negative,
                // fractional, or a product beyond uint64) is replayed
                // verbatim, so sum(count) over the file stays the corpus's
                for (std::uint64_t i = 1; i < row.weight; ++i)
                    writer.write_record(rm);
            }
            writer.write_record(rm);
        }
    }
}

} // namespace calib::proxyd
