// calib-push: stream .cali files to a running calib-proxyd daemon.
//
//   calib-push --connect /tmp/calib-proxyd.sock a.cali b.cali
//
// Reads each input with the resolve-once id-based reader and pushes every
// record over one connection, so attribute names (with their types and
// properties) travel exactly once. With --with-globals, each file's
// dataset globals are sent before its records and joined onto them by the
// daemon — the streaming analogue of cali-query -G.
//
// Exit status 0 guarantees the records are folded into the daemon's
// aggregate (the push ends with a query ack), so scripts can push from
// several processes, wait, and then query without racing the daemon.
#include "../io/calireader.hpp"
#include "../net/client.hpp"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace {

void usage() {
    std::puts(
        "usage: calib-push --connect <addr> [options] <file.cali>...\n"
        "\n"
        "options:\n"
        "  -c, --connect <addr>   daemon address (unix path or host:port)\n"
        "      --channel <name>   daemon channel to push into (default: default)\n"
        "  -G, --with-globals     send each file's dataset globals; the daemon\n"
        "                         joins them onto that file's records\n"
        "  -h, --help             show this message");
}

} // namespace

int main(int argc, char** argv) {
    std::string address;
    std::string channel = "default";
    bool with_globals   = false;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "-c" || arg == "--connect") {
            if (++i >= argc) {
                std::fprintf(stderr, "calib-push: missing argument for %s\n",
                             arg.c_str());
                return 2;
            }
            address = argv[i];
        } else if (arg == "--channel") {
            if (++i >= argc) {
                std::fprintf(stderr, "calib-push: missing argument for %s\n",
                             arg.c_str());
                return 2;
            }
            channel = argv[i];
        } else if (arg == "-G" || arg == "--with-globals") {
            with_globals = true;
        } else if (arg == "-h" || arg == "--help") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
            std::fprintf(stderr, "calib-push: unknown option %s\n", arg.c_str());
            return 2;
        } else {
            files.push_back(arg);
        }
    }

    if (address.empty() || files.empty()) {
        usage();
        return 2;
    }

    try {
        calib::net::ProxyClient::Options opts;
        opts.address     = address;
        opts.channel     = channel;
        opts.client_name = "calib-push";
        calib::net::ProxyClient client(opts);

        // one registry for the whole connection: attribute definitions hit
        // the wire once even when every input file redefines them
        calib::AttributeRegistry registry;
        calib::IdRecord rec;
        const auto push = [&](calib::RecordBatch& batch) {
            for (std::size_t r = 0; r < batch.rows(); ++r) {
                batch.materialize(r, rec);
                client.push(registry, rec);
            }
        };
        const std::size_t bs = calib::RecordBatch::default_rows;

        for (const std::string& file : files) {
            if (with_globals) {
                // globals go out before the first record they join
                calib::CaliFileSource source(file, /*target_chunk_bytes=*/1u << 30);
                calib::IdRecord globals = source.read_globals(registry);
                client.set_globals(calib::to_recordmap(globals, registry),
                                   /*join=*/true);
                for (std::size_t c = 0; c < source.chunks().size(); ++c)
                    source.read_chunk_batches(c, registry, bs, push);
            } else {
                calib::CaliReader::read_file_batches(file, registry, bs, push);
            }
        }

        client.flush();
        // delivery barrier: the daemon answers queries on a connection only
        // after folding every record it received on it, so a successful exit
        // guarantees the records are aggregated, not merely written to the
        // socket (a later query from another connection will see them)
        client.query("AGGREGATE count FORMAT csv");
        std::fprintf(stderr,
                     "calib-push: %llu records in %llu frames (%llu bytes) to %s\n",
                     static_cast<unsigned long long>(client.records_sent()),
                     static_cast<unsigned long long>(client.frames_sent()),
                     static_cast<unsigned long long>(client.bytes_sent()),
                     address.c_str());
        client.close();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "calib-push: %s\n", e.what());
        return 1;
    }
    return 0;
}
