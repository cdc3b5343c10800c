/**
 * @file
 * Aggregate registration: every scenario into one registry.
 */

#include "scenarios/scenarios.hh"

namespace specint::scenarios
{

void
registerAllScenarios(experiment::ScenarioRegistry &r)
{
    registerTable1(r);
    registerFig7(r);
    registerFig8(r);
    registerFig11(r);
    registerFig12(r);
    registerAblationAdvanced(r);
    registerAblationMshr(r);
    registerAblationRs(r);
    registerAblationSmt(r);
    registerAblationCrossCore(r);
    registerAblationCoherence(r);
}

const experiment::ScenarioRegistry &
all()
{
    static const experiment::ScenarioRegistry registry = [] {
        experiment::ScenarioRegistry r;
        registerAllScenarios(r);
        return r;
    }();
    return registry;
}

} // namespace specint::scenarios
