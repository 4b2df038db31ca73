/**
 * @file
 * lotus_viz — the paper's visualization_augmenter.py analogue.
 *
 *   lotus_viz <trace.lotustrace> <out.json> [--fine]
 *             [--augment existing_profiler_trace.json]
 *
 * Converts a LotusTrace log into a Chrome Trace Viewer document
 * (coarse batch-level spans, or batch + per-op with --fine), with the
 * preprocessed -> consumed flow arrows. With --augment, the events of
 * an existing framework-profiler trace are carried through untouched
 * and the Lotus events are merged in under negative synthetic ids
 * (paper §III-C).
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "core/lotustrace/visualize.h"
#include "trace/chrome_reader.h"
#include "trace/logger.h"

int
main(int argc, char **argv)
{
    using namespace lotus;
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: %s <trace.lotustrace> <out.json> [--fine] "
                     "[--augment existing.json]\n",
                     argv[0]);
        return 2;
    }
    const std::string in_path = argv[1];
    const std::string out_path = argv[2];
    core::lotustrace::VisualizeOptions options;
    std::string augment_path;
    for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--fine") == 0) {
            options.per_op = true;
        } else if (std::strcmp(argv[i], "--augment") == 0 &&
                   i + 1 < argc) {
            augment_path = argv[++i];
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
            return 2;
        }
    }

    auto loaded = trace::TraceLogger::readFrom(in_path);
    if (!loaded.ok()) {
        std::fprintf(stderr, "%s: %s\n", in_path.c_str(),
                     loaded.error().describe().c_str());
        return 1;
    }
    const auto records = loaded.take();
    trace::ChromeTraceBuilder builder;
    if (!augment_path.empty()) {
        const auto existing =
            trace::readChromeTraceFile(augment_path);
        for (const auto &event : existing)
            builder.addRaw(event);
        std::printf("carried %zu events from %s\n", existing.size(),
                    augment_path.c_str());
    }
    core::lotustrace::augmentTrace(builder, records, options);
    const auto bytes = builder.writeTo(out_path);
    std::printf("wrote %s (%llu bytes, %zu events) — open in "
                "chrome://tracing\n",
                out_path.c_str(), static_cast<unsigned long long>(bytes),
                builder.events().size());
    return 0;
}
