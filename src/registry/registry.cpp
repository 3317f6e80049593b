#include "registry/registry.hpp"

namespace gtrix {

const char* param_type_name(ParamType t) noexcept {
  switch (t) {
    case ParamType::kInt: return "int";
    case ParamType::kDouble: return "double";
    case ParamType::kBool: return "bool";
    case ParamType::kString: return "string";
  }
  return "?";
}

namespace registry_detail {

namespace {

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) out += ", ";
    out += item;
  }
  return out;
}

std::string param_names(const std::vector<ParamInfo>& schema) {
  if (schema.empty()) return "takes no parameters";
  std::string out = "valid parameters: ";
  for (std::size_t i = 0; i < schema.size(); ++i) {
    if (i > 0) out += ", ";
    out += schema[i].name;
  }
  return out;
}

bool type_matches(ParamType type, const Json& value) {
  switch (type) {
    case ParamType::kInt: return value.is_int();
    case ParamType::kDouble: return value.is_number();
    case ParamType::kBool: return value.is_bool();
    case ParamType::kString: return value.is_string();
  }
  return false;
}

}  // namespace

const ParamInfo* find_param(const std::vector<ParamInfo>& schema, std::string_view name) {
  for (const ParamInfo& info : schema) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

Json checked_param(const ParamInfo& info, const Json& value, const std::string& dimension,
                   const std::string& kind) {
  if (!type_matches(info.type, value)) {
    throw JsonError("parameter '" + info.name + "' of " + dimension + " '" + kind +
                    "': expected " + param_type_name(info.type) + ", got " + value.type_name());
  }
  if (value.is_number() && value.as_double() < info.min) {
    const Json min = info.type == ParamType::kInt ? Json(static_cast<std::int64_t>(info.min))
                                                  : Json(info.min);
    throw JsonError("parameter '" + info.name + "' of " + dimension + " '" + kind +
                    "' must be >= " + min.dump() + ", got " + value.dump());
  }
  // Normalize numbers to the declared type so the canonical form -- and the
  // JSONL bytes derived from it -- do not depend on how a value was spelled.
  switch (info.type) {
    case ParamType::kInt: return Json(value.as_int());
    case ParamType::kDouble: return Json(value.as_double());
    case ParamType::kBool:
    case ParamType::kString: return value;
  }
  return value;
}

Json canonical_params(const std::vector<ParamInfo>& schema, const Json& given,
                      const std::string& dimension, const std::string& kind) {
  for (const auto& [key, value] : given.as_object()) {
    (void)value;
    if (find_param(schema, key) == nullptr) unknown_param(schema, dimension, kind, key);
  }
  Json out = Json::object();
  for (const ParamInfo& info : schema) {
    const Json* value = given.find(info.name);
    out.set(info.name,
            value == nullptr ? info.default_value : checked_param(info, *value, dimension, kind));
  }
  return out;
}

void unknown_kind(const std::string& dimension, std::string_view kind,
                  const std::vector<std::string>& valid) {
  throw JsonError("unknown " + dimension + " '" + std::string(kind) +
                  "' (valid: " + join(valid) + ")");
}

void duplicate_kind(const std::string& dimension, const std::string& kind) {
  throw JsonError("duplicate " + dimension + " registration '" + kind + "'");
}

void unknown_param(const std::vector<ParamInfo>& schema, const std::string& dimension,
                   const std::string& kind, std::string_view name) {
  throw JsonError("unknown parameter '" + std::string(name) + "' for " + dimension + " '" +
                  kind + "' (" + param_names(schema) + ")");
}

void check_schema(const std::vector<ParamInfo>& schema, const std::string& dimension,
                  const std::string& kind) {
  for (std::size_t i = 0; i < schema.size(); ++i) {
    for (std::size_t j = i + 1; j < schema.size(); ++j) {
      if (schema[i].name == schema[j].name) {
        throw JsonError("duplicate parameter '" + schema[i].name + "' in schema of " +
                        dimension + " '" + kind + "'");
      }
    }
    if (!type_matches(schema[i].type, schema[i].default_value)) {
      throw JsonError("default for parameter '" + schema[i].name + "' of " + dimension + " '" +
                      kind + "' does not match its declared type " +
                      param_type_name(schema[i].type));
    }
  }
}

}  // namespace registry_detail
}  // namespace gtrix
