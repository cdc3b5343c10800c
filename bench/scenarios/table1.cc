/**
 * @file
 * Scenario: Table 1, the invisible-speculation vulnerability matrix.
 * One sweep point per (gadget/ordering combo, scheme) cell — 8 x 12
 * independent simulations, so the grid parallelises fully. The legacy
 * renderer reproduces the pre-refactor bench output byte-for-byte from
 * the assembled rows.
 */

#include "scenarios/scenarios.hh"
#include "scenarios/util.hh"

#include <cstdio>
#include <stdexcept>

#include "attack/matrix.hh"
#include "sim/experiment/report.hh"
#include "sim/obs/profile.hh"
#include "sim/stats.hh"

namespace specint::scenarios
{

namespace
{

using namespace experiment;

std::string
comboName(GadgetKind g, OrderingKind o)
{
    return gadgetName(g) + "/" + orderingName(o);
}

std::pair<GadgetKind, OrderingKind>
comboFromName(const std::string &name)
{
    for (const auto &[g, o] : tableOneCombos())
        if (comboName(g, o) == name)
            return {g, o};
    throw std::out_of_range("unknown Table 1 combo '" + name + "'");
}

PointResult
runPoint(const PointContext &ctx, const RunOptions &)
{
    const auto [g, o] = comboFromName(ctx.point.at("cell"));
    const SchemeKind s = schemeFromName(ctx.point.at("scheme"));

    MatrixCell cell;
    {
        const obs::ScopedTimer timer("table1.evaluateCell");
        cell = evaluateCell(g, o, s);
    }
    const bool expected = expectedVulnerable(g, o, s);
    const bool deviation = knownDeviation(g, o, s);
    std::string note;
    if (deviation)
        note = "documented deviation";
    else if (cell.vulnerable != expected)
        note = "MISMATCH";

    PointResult res;
    res.rows.push_back({Value::str(gadgetName(g)),
                        Value::str(orderingName(o)),
                        Value::str(schemeName(s)),
                        Value::str(cell.vulnerable ? "VULNERABLE"
                                                   : "safe"),
                        Value::str(expected ? "VULNERABLE" : "safe"),
                        Value::str(note)});
    return res;
}

int
renderLegacy(const Report &report, const RunOptions &, std::FILE *out)
{
    std::fprintf(out, "=== Table 1: invisible speculation vulnerability "
                      "matrix ===\n\n");

    unsigned agree = 0, total = 0, deviations = 0;
    TextTable table({"gadget", "ordering", "scheme", "measured",
                     "paper", "note"});
    for (const Row &row : report.allRows()) {
        table.addRow({row[0].text(), row[1].text(), row[2].text(),
                      row[3].text(), row[4].text(), row[5].text()});
        ++total;
        if (row[5].strValue() == "documented deviation")
            ++deviations;
        else if (row[5].strValue().empty())
            ++agree;
    }
    std::fprintf(out, "%s\n", table.render().c_str());

    // Paper-style summary: which schemes fall to each column. Grid
    // order is cell-major, so rows for one cell are contiguous and
    // ordered by allSchemes().
    const std::vector<SchemeKind> schemes = allSchemes();
    const std::vector<Row> rows = report.allRows();
    std::fprintf(out,
                 "paper-format summary (vulnerable schemes per cell):\n");
    std::size_t cell_idx = 0;
    for (const auto &[g, o] : tableOneCombos()) {
        std::fprintf(out, "  %-8s %-10s:", gadgetName(g).c_str(),
                     orderingName(o).c_str());
        for (SchemeKind s : attackedSchemes()) {
            for (std::size_t si = 0; si < schemes.size(); ++si) {
                if (schemes[si] != s)
                    continue;
                const Row &row =
                    rows[cell_idx * schemes.size() + si];
                if (row[3].strValue() == "VULNERABLE")
                    std::fprintf(out, " [%s]",
                                 schemeName(s).c_str());
            }
        }
        std::fprintf(out, "\n");
        ++cell_idx;
    }

    std::fprintf(out,
                 "\nagreement with paper: %u/%u cells "
                 "(+%u documented deviations where the simulator finds "
                 "a real leak; see docs/defenses.md)\n",
                 agree, total, deviations);
    return (agree + deviations == total) ? 0 : 1;
}

} // namespace

void
registerTable1(experiment::ScenarioRegistry &r)
{
    Scenario sc;
    sc.name = "table1";
    sc.description = "invisible-speculation vulnerability matrix: "
                     "every (gadget, ordering) sender vs every scheme";
    sc.paperRef = "Table 1";
    sc.defaultTrials = 1;
    sc.defaultSeed = 0;
    sc.trialsMeaning =
        "unused (every cell is a deterministic two-secret run)";
    sc.columns = {"gadget", "ordering", "scheme", "measured", "paper",
                  "note"};
    sc.sweep = [](const RunOptions &) {
        std::vector<std::string> cells;
        for (const auto &[g, o] : tableOneCombos())
            cells.push_back(comboName(g, o));
        SweepSpec spec;
        spec.axis("cell", std::move(cells))
            .axis("scheme", allSchemeNames());
        return spec;
    };
    sc.run = runPoint;
    sc.renderLegacy = renderLegacy;
    r.add(std::move(sc));
}

} // namespace specint::scenarios
