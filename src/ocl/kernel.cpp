#include "ocl/kernel.h"

#include <algorithm>

namespace binopt::ocl {

void KernelArgs::set(std::size_t index, Value value) {
  if (index >= args_.size()) args_.resize(index + 1);
  args_[index] = std::move(value);
}

const KernelArgs::Value& KernelArgs::at(std::size_t index) const {
  BINOPT_REQUIRE(index < args_.size() && args_[index].has_value(),
                 "kernel argument ", index, " is not bound");
  return *args_[index];
}

Buffer& KernelArgs::buffer(std::size_t index) const {
  const Value& v = at(index);
  BINOPT_REQUIRE(std::holds_alternative<Buffer*>(v), "kernel argument ", index,
                 " is not a buffer");
  Buffer* b = std::get<Buffer*>(v);
  BINOPT_ENSURE(b != nullptr, "null buffer bound at argument ", index);
  return *b;
}

double KernelArgs::f64(std::size_t index) const {
  const Value& v = at(index);
  BINOPT_REQUIRE(std::holds_alternative<double>(v), "kernel argument ", index,
                 " is not a double");
  return std::get<double>(v);
}

std::int64_t KernelArgs::i64(std::size_t index) const {
  const Value& v = at(index);
  BINOPT_REQUIRE(std::holds_alternative<std::int64_t>(v), "kernel argument ",
                 index, " is not an int64");
  return std::get<std::int64_t>(v);
}

std::uint64_t KernelArgs::u64(std::size_t index) const {
  const Value& v = at(index);
  BINOPT_REQUIRE(std::holds_alternative<std::uint64_t>(v), "kernel argument ",
                 index, " is not a uint64");
  return std::get<std::uint64_t>(v);
}

void Kernel::validate_form() const {
  const bool has_body = static_cast<bool>(body);
  BINOPT_REQUIRE(has_body || phased.has_value(), "kernel '", name,
                 "' has no body");
  BINOPT_REQUIRE(!(has_body && phased.has_value()), "kernel '", name,
                 "' sets both a lambda body and a phased body");
  if (phased.has_value()) {
    const bool complete =
        phased->init_state != nullptr &&
        std::ranges::all_of(phased->runners, [](const auto& runner) {
          return static_cast<bool>(runner);
        });
    BINOPT_REQUIRE(complete, "kernel '", name, "' has an empty phased body");
    BINOPT_REQUIRE(phased->phases >= 1, "phased kernel '", name,
                   "' needs at least one phase");
  }
}

void KernelArgs::validate_complete() const {
  for (std::size_t i = 0; i < args_.size(); ++i) {
    BINOPT_REQUIRE(args_[i].has_value(), "kernel argument ", i,
                   " left unbound at launch");
  }
}

}  // namespace binopt::ocl
