/**
 * @file
 * lotus_analyze — automated analysis of a LotusTrace log file.
 *
 *   lotus_analyze <trace.lotustrace> [--table2]
 *
 * Prints the bottleneck report (regime, findings, recommendations);
 * with --table2, also prints the per-op elapsed-time table in the
 * paper's Table II format.
 */

#include <cstdio>
#include <cstring>

#include "analysis/table.h"
#include "common/strings.h"
#include "core/lotustrace/analysis.h"
#include "core/lotustrace/report.h"
#include "trace/logger.h"

int
main(int argc, char **argv)
{
    using namespace lotus;
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s <trace.lotustrace> [--table2]\n", argv[0]);
        return 2;
    }
    const std::string path = argv[1];
    const bool want_table2 =
        argc > 2 && std::strcmp(argv[2], "--table2") == 0;

    auto loaded = trace::TraceLogger::readFrom(path);
    if (!loaded.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     loaded.error().describe().c_str());
        return 1;
    }
    const auto records = loaded.take();
    std::printf("%zu records from %s\n\n", records.size(), path.c_str());

    const auto report = core::lotustrace::buildReport(records);
    std::printf("%s", report.render().c_str());

    if (want_table2) {
        core::lotustrace::TraceAnalysis analysis(records);
        analysis::TextTable table(
            {"op", "avg ms", "P90 ms", "<10ms", "<100us"});
        for (const auto &op : analysis.opStats()) {
            table.addRow({op.name, strFormat("%.2f", op.summary_ms.mean),
                          strFormat("%.2f", op.summary_ms.p90),
                          strFormat("%.1f%%", 100.0 * op.frac_below_10ms),
                          strFormat("%.1f%%",
                                    100.0 * op.frac_below_100us)});
        }
        std::printf("\nper-op elapsed time (Table II format):\n%s",
                    table.render().c_str());
    }
    return 0;
}
