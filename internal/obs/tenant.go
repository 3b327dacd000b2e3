package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// TenantRule derives a tenant tag from a key. Sedna keys are
// dataset/table/name paths, so the natural tenancy boundaries are the first
// one or two path segments; a byte-prefix rule covers foreign keyspaces.
// The zero value disables tenant attribution entirely.
type TenantRule struct {
	mode   uint8
	prefix int
}

const (
	tenantNone uint8 = iota
	tenantDataset
	tenantTable
	tenantPrefix
)

// ParseTenantRule parses a tenant-rule spec:
//
//	""          tenant attribution disabled
//	"dataset"   first path segment (everything before the first '/')
//	"table"     first two path segments ("ds/tb")
//	"prefix:N"  first N bytes of the key
func ParseTenantRule(spec string) (TenantRule, error) {
	switch {
	case spec == "":
		return TenantRule{}, nil
	case spec == "dataset":
		return TenantRule{mode: tenantDataset}, nil
	case spec == "table":
		return TenantRule{mode: tenantTable}, nil
	case strings.HasPrefix(spec, "prefix:"):
		n, err := strconv.Atoi(spec[len("prefix:"):])
		if err != nil || n < 1 {
			return TenantRule{}, fmt.Errorf("obs: bad tenant rule %q: prefix length must be a positive integer", spec)
		}
		return TenantRule{mode: tenantPrefix, prefix: n}, nil
	default:
		return TenantRule{}, fmt.Errorf("obs: unknown tenant rule %q (want \"\", dataset, table, or prefix:N)", spec)
	}
}

// Enabled reports whether the rule extracts anything.
func (t TenantRule) Enabled() bool { return t.mode != tenantNone }

// Extract returns the tenant tag for key, or "" when the rule is disabled or
// the key does not match it. Extraction is substring slicing — no
// allocation.
func (t TenantRule) Extract(key string) string {
	switch t.mode {
	case tenantDataset:
		if i := strings.IndexByte(key, '/'); i > 0 {
			return key[:i]
		}
	case tenantTable:
		if i := strings.IndexByte(key, '/'); i > 0 {
			if j := strings.IndexByte(key[i+1:], '/'); j > 0 {
				return key[:i+1+j]
			}
		}
	case tenantPrefix:
		if len(key) >= t.prefix {
			return key[:t.prefix]
		}
		if len(key) > 0 {
			return key
		}
	}
	return ""
}

// maxTenants bounds the per-tenant table; traffic beyond the cap folds into
// the overflow bucket so a tenant-cardinality explosion cannot grow memory.
const (
	maxTenants     = 128
	overflowTenant = "~other"
)

// tenantStats is the live per-tenant accumulator.
type tenantStats struct {
	reads  atomic.Uint64
	writes atomic.Uint64
	bytes  atomic.Uint64
	errors atomic.Uint64
	lat    Histogram
}

// TenantSnapshot is one tenant's merged attribution row.
type TenantSnapshot struct {
	Tenant string       `json:"tenant"`
	Reads  uint64       `json:"reads"`
	Writes uint64       `json:"writes"`
	Bytes  uint64       `json:"bytes,omitempty"`
	Errors uint64       `json:"errors,omitempty"`
	Lat    HistSnapshot `json:"lat"`
}

// SetTenantRule installs the tenant extraction rule. Nil-safe.
func (r *Registry) SetTenantRule(rule TenantRule) {
	if r == nil {
		return
	}
	r.tenantRule.Store(&rule)
}

// TenantOf applies the registry's tenant rule to key. Nil-safe; "" when
// disabled.
func (r *Registry) TenantOf(key string) string {
	if r == nil {
		return ""
	}
	rule := r.tenantRule.Load()
	if rule == nil {
		return ""
	}
	return rule.Extract(key)
}

// RecordTenantOp attributes one completed op to tenant. Nil-safe; a no-op
// for the empty tenant.
func (r *Registry) RecordTenantOp(tenant string, write bool, bytes int, d time.Duration, failed bool) {
	if r == nil || tenant == "" {
		return
	}
	ts := r.tenantFor(tenant)
	if write {
		ts.writes.Add(1)
	} else {
		ts.reads.Add(1)
	}
	ts.bytes.Add(uint64(bytes))
	if failed {
		ts.errors.Add(1)
	}
	ts.lat.Observe(d)
}

func (r *Registry) tenantFor(tenant string) *tenantStats {
	r.tenantMu.RLock()
	ts, ok := r.tenants[tenant]
	r.tenantMu.RUnlock()
	if ok {
		return ts
	}
	r.tenantMu.Lock()
	defer r.tenantMu.Unlock()
	if ts, ok = r.tenants[tenant]; ok {
		return ts
	}
	if r.tenants == nil {
		r.tenants = make(map[string]*tenantStats)
	}
	if len(r.tenants) >= maxTenants {
		if ts, ok = r.tenants[overflowTenant]; ok {
			return ts
		}
		tenant = overflowTenant
	}
	ts = &tenantStats{}
	r.tenants[tenant] = ts
	return ts
}

// TenantsSnapshot returns every tenant's attribution row, busiest first.
// Nil-safe.
func (r *Registry) TenantsSnapshot() []TenantSnapshot {
	if r == nil {
		return nil
	}
	r.tenantMu.RLock()
	out := make([]TenantSnapshot, 0, len(r.tenants))
	for name, ts := range r.tenants {
		out = append(out, TenantSnapshot{
			Tenant: name,
			Reads:  ts.reads.Load(),
			Writes: ts.writes.Load(),
			Bytes:  ts.bytes.Load(),
			Errors: ts.errors.Load(),
			Lat:    ts.lat.Snapshot(),
		})
	}
	r.tenantMu.RUnlock()
	sortTenants(out)
	return out
}

// MergeTenants folds per-node tenant rows into one cluster-wide table,
// busiest first.
func MergeTenants(lists ...[]TenantSnapshot) []TenantSnapshot {
	byName := map[string]TenantSnapshot{}
	for _, list := range lists {
		for _, t := range list {
			cur, ok := byName[t.Tenant]
			if !ok {
				byName[t.Tenant] = t
				continue
			}
			cur.Reads += t.Reads
			cur.Writes += t.Writes
			cur.Bytes += t.Bytes
			cur.Errors += t.Errors
			cur.Lat = cur.Lat.Merge(t.Lat)
			byName[t.Tenant] = cur
		}
	}
	out := make([]TenantSnapshot, 0, len(byName))
	for _, t := range byName {
		out = append(out, t)
	}
	sortTenants(out)
	return out
}

func sortTenants(out []TenantSnapshot) {
	sort.Slice(out, func(i, j int) bool {
		oi, oj := out[i].Reads+out[i].Writes, out[j].Reads+out[j].Writes
		if oi != oj {
			return oi > oj
		}
		return out[i].Tenant < out[j].Tenant
	})
}
