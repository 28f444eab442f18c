// Umbrella header for the unified solver API: instance construction and
// the Solver facade + registry. Results are rendered by the service layer
// (service::print_job_json, service::BatchResult::table).
#pragma once

#include "api/instance.h"   // IWYU pragma: export
#include "api/registry.h"   // IWYU pragma: export
#include "api/solver.h"     // IWYU pragma: export
