// Package schematest pins the remark wire format: remarks.schema.json
// is the committed JSON Schema of the stream rolagc -remarks=json and
// rolagd emit, and Validate checks an instance against it with a small
// built-in validator (the project takes no dependencies, so it
// implements just the draft-07 subset the schema uses: type, enum,
// required, properties, additionalProperties, items, minimum).
//
// The schema is the compatibility contract for external remark
// consumers; changing it is an API change and should be deliberate.
package schematest

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

//go:embed remarks.schema.json
var schemaJSON []byte

// Validate checks that data (a JSON document) conforms to the remark
// schema. It returns the first violation found, with a JSON-pointer-ish
// path to the offending value.
func Validate(data []byte) error {
	var schema, instance any
	if err := json.Unmarshal(schemaJSON, &schema); err != nil {
		return fmt.Errorf("schematest: embedded schema is invalid JSON: %w", err)
	}
	if err := json.Unmarshal(data, &instance); err != nil {
		return fmt.Errorf("schematest: instance is invalid JSON: %w", err)
	}
	return validate(schema, instance, "$")
}

func validate(schema, value any, path string) error {
	s, ok := schema.(map[string]any)
	if !ok {
		return fmt.Errorf("schematest: schema node at %s is not an object", path)
	}
	if typ, ok := s["type"].(string); ok {
		if err := checkType(typ, value, path); err != nil {
			return err
		}
	}
	if enum, ok := s["enum"].([]any); ok {
		if err := checkEnum(enum, value, path); err != nil {
			return err
		}
	}
	if min, ok := s["minimum"].(float64); ok {
		if n, isNum := value.(float64); isNum && n < min {
			return fmt.Errorf("%s: %v is below minimum %v", path, n, min)
		}
	}
	if obj, isObj := value.(map[string]any); isObj {
		if err := validateObject(s, obj, path); err != nil {
			return err
		}
	}
	if arr, isArr := value.([]any); isArr {
		if items, ok := s["items"]; ok {
			for i, el := range arr {
				if err := validate(items, el, fmt.Sprintf("%s[%d]", path, i)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func validateObject(s map[string]any, obj map[string]any, path string) error {
	if req, ok := s["required"].([]any); ok {
		for _, r := range req {
			name, _ := r.(string)
			if _, present := obj[name]; !present {
				return fmt.Errorf("%s: missing required property %q", path, name)
			}
		}
	}
	props, _ := s["properties"].(map[string]any)
	addl, hasAddl := s["additionalProperties"].(bool)
	// Walk in sorted key order so the first violation is deterministic.
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sub, known := props[k]
		if !known {
			if hasAddl && !addl {
				return fmt.Errorf("%s: unexpected property %q", path, k)
			}
			continue
		}
		if err := validate(sub, obj[k], path+"."+k); err != nil {
			return err
		}
	}
	return nil
}

func checkType(typ string, value any, path string) error {
	ok := false
	switch typ {
	case "array":
		_, ok = value.([]any)
	case "object":
		_, ok = value.(map[string]any)
	case "string":
		_, ok = value.(string)
	case "boolean":
		_, ok = value.(bool)
	case "number":
		_, ok = value.(float64)
	case "integer":
		n, isNum := value.(float64)
		ok = isNum && n == math.Trunc(n)
	case "null":
		ok = value == nil
	default:
		return fmt.Errorf("schematest: unsupported schema type %q at %s", typ, path)
	}
	if !ok {
		return fmt.Errorf("%s: want %s, got %T", path, typ, value)
	}
	return nil
}

func checkEnum(enum []any, value any, path string) error {
	for _, e := range enum {
		if e == value {
			return nil
		}
	}
	return fmt.Errorf("%s: value %v not in enum %v", path, value, enum)
}
