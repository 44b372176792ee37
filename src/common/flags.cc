#include "common/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/check.h"

namespace svt {

namespace {

std::string BoolRepr(bool b) { return b ? "true" : "false"; }

}  // namespace

void FlagSet::AddInt64(const std::string& name, int64_t* value,
                       const std::string& help) {
  SVT_CHECK(value != nullptr);
  entries_[name] = Entry{Kind::kInt64, value, help, std::to_string(*value)};
}

void FlagSet::AddDouble(const std::string& name, double* value,
                        const std::string& help) {
  SVT_CHECK(value != nullptr);
  entries_[name] = Entry{Kind::kDouble, value, help, std::to_string(*value)};
}

void FlagSet::AddBool(const std::string& name, bool* value,
                      const std::string& help) {
  SVT_CHECK(value != nullptr);
  entries_[name] = Entry{Kind::kBool, value, help, BoolRepr(*value)};
}

void FlagSet::AddString(const std::string& name, std::string* value,
                        const std::string& help) {
  SVT_CHECK(value != nullptr);
  entries_[name] = Entry{Kind::kString, value, help, *value};
}

Status FlagSet::SetValue(const std::string& name, const std::string& value) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::InvalidArgument("unknown flag --" + name);
  }
  Entry& entry = it->second;
  char* end = nullptr;
  switch (entry.kind) {
    case Kind::kInt64: {
      errno = 0;
      const long long parsed = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("flag --" + name +
                                       ": not an integer: " + value);
      }
      if (errno == ERANGE) {
        return Status::InvalidArgument("flag --" + name +
                                       ": out of range: " + value);
      }
      *static_cast<int64_t*>(entry.target) = parsed;
      return Status::OK();
    }
    case Kind::kDouble: {
      errno = 0;
      const double parsed = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("flag --" + name +
                                       ": not a number: " + value);
      }
      // strtod also sets ERANGE for an inexact subnormal result, which is
      // a usable value; only overflow and underflow to zero lose it.
      if (errno == ERANGE && (parsed == 0.0 || std::isinf(parsed))) {
        return Status::InvalidArgument("flag --" + name +
                                       ": out of range: " + value);
      }
      *static_cast<double*>(entry.target) = parsed;
      return Status::OK();
    }
    case Kind::kBool: {
      if (value == "true" || value == "1") {
        *static_cast<bool*>(entry.target) = true;
      } else if (value == "false" || value == "0") {
        *static_cast<bool*>(entry.target) = false;
      } else {
        return Status::InvalidArgument("flag --" + name +
                                       ": not a bool: " + value);
      }
      return Status::OK();
    }
    case Kind::kString:
      *static_cast<std::string*>(entry.target) = value;
      return Status::OK();
  }
  return Status::Internal("unreachable flag kind");
}

Status FlagSet::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(Usage(argv[0]).c_str(), stdout);
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    std::string name, value;
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      auto it = entries_.find(name);
      if (it != entries_.end() && it->second.kind == Kind::kBool) {
        value = "true";  // bare --flag enables a bool
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        return Status::InvalidArgument("flag --" + name + " missing value");
      }
    }
    SVT_RETURN_NOT_OK(SetValue(name, value));
  }
  return Status::OK();
}

std::string FlagSet::Usage(const std::string& program) const {
  std::ostringstream os;
  os << "Usage: " << program << " [flags]\n";
  for (const auto& [name, entry] : entries_) {
    os << "  --" << name << " (default: " << entry.default_repr << ")\n"
       << "      " << entry.help << "\n";
  }
  return os.str();
}

}  // namespace svt
