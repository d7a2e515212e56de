#include "ocl/program.h"

#include <charconv>
#include <utility>

#include "common/error.h"

namespace binopt::ocl {

namespace {

/// Extracts the value of "-DNAME=value" from an option token; returns
/// false when the token is not that define.
bool match_define(std::string_view token, std::string_view name,
                  unsigned& out) {
  const std::string prefix = std::string("-D") + std::string(name) + "=";
  if (token.substr(0, prefix.size()) != prefix) return false;
  const std::string_view value = token.substr(prefix.size());
  unsigned parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  BINOPT_REQUIRE(ec == std::errc{} && ptr == value.data() + value.size(),
                 "malformed build option value in '", std::string(token), "'");
  BINOPT_REQUIRE(parsed >= 1, "build option '", std::string(token),
                 "' must be >= 1");
  out = parsed;
  return true;
}

}  // namespace

fpga::CompileOptions parse_build_options(std::string_view options) {
  fpga::CompileOptions parsed;
  std::size_t pos = 0;
  while (pos < options.size()) {
    while (pos < options.size() && options[pos] == ' ') ++pos;
    std::size_t end = options.find(' ', pos);
    if (end == std::string_view::npos) end = options.size();
    const std::string_view token = options.substr(pos, end - pos);
    pos = end;
    if (token.empty()) continue;
    unsigned value = 0;
    if (match_define(token, "NUM_SIMD_WORK_ITEMS", value)) {
      parsed.simd_width = value;
    } else if (match_define(token, "NUM_COMPUTE_UNITS", value)) {
      parsed.num_compute_units = value;
    } else if (match_define(token, "UNROLL_FACTOR", value)) {
      parsed.unroll_factor = value;
    }
    // Other tokens (-I, other -D defines, -cl-* flags) pass through
    // silently, as a real OpenCL compiler would accept them.
  }
  parsed.validate();
  return parsed;
}

std::string render_build_options(const fpga::CompileOptions& options) {
  options.validate();
  return "-DNUM_SIMD_WORK_ITEMS=" + std::to_string(options.simd_width) +
         " -DNUM_COMPUTE_UNITS=" + std::to_string(options.num_compute_units) +
         " -DUNROLL_FACTOR=" + std::to_string(options.unroll_factor);
}

Program::Program(std::string build_options)
    : build_options_(std::move(build_options)),
      compile_options_(parse_build_options(build_options_)) {}

void Program::add_kernel(Kernel kernel) {
  BINOPT_REQUIRE(!kernel.name.empty(), "kernel must be named");
  kernel.validate_form();
  const std::string name = kernel.name;
  BINOPT_REQUIRE(kernels_.emplace(name, std::move(kernel)).second,
                 "duplicate kernel '", name, "' in program");
}

const Kernel& Program::kernel(const std::string& name) const {
  const auto it = kernels_.find(name);
  BINOPT_REQUIRE(it != kernels_.end(), "no kernel named '", name,
                 "' in program");
  return it->second;
}

bool Program::has_kernel(const std::string& name) const {
  return kernels_.contains(name);
}

}  // namespace binopt::ocl
