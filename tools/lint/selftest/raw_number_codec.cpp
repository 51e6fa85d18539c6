// Planted raw-number-codec violations. The basename matches the rule's
// fixture scope, standing in for a file under src/ outside dse/codec.
// This file is a fixture — it is never compiled.
#include <cstdio>
#include <cstdlib>
#include <string>

namespace fixture_number_codec {

void hand_rolled_parsers(const std::string& t, char** end) {
  (void)std::strtoull(t.c_str(), end, 10);  // expect(raw-number-codec)
  (void)strtol(t.c_str(), end, 10);         // expect(raw-number-codec)
  (void)std::strtod(t.c_str(), end);        // expect(raw-number-codec)
  (void)strtof(t.c_str(), end);             // expect(raw-number-codec)
  (void)std::stoi(t);                       // expect(raw-number-codec)
  (void)std::stoull(t);                     // expect(raw-number-codec)
  (void)std::stod(t);                       // expect(raw-number-codec)
}

void second_hexfloat_writer(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", v);  // expect(raw-number-codec)
}

void lookalikes_stay_silent(const std::string& t) {
  // Comments may name strtod(...) or std::stoi(...), and a "%a" format.
  const char* doc = "call strtod( or std::stod( yourself";  // string: silent
  (void)doc;
  (void)t.find("%a ");    // not the bare format string: silent
  (void)my_strtod_like(t);  // different identifier: silent
  (void)std::stoll(t);      // not in the rule's list: silent
}

void suppressed(const std::string& t) {
  (void)std::stoi(t);  // ace-lint: allow(raw-number-codec)
}

}  // namespace fixture_number_codec
