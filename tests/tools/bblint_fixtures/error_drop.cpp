// Known-bad fixture: exactly one no-silent-error-drop violation.
#include <string>

#include "common/status.h"
#include "core/partial.h"

void Checkpoint(const bb::core::PartialResult& partial,
                const std::string& path) {
  const bb::Status ok = bb::core::SavePartial(partial, path);  // fine
  (void)ok;
  bb::core::SavePartial(partial, path);  // the one violation
}
