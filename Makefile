GO ?= go

.PHONY: all build vet test race benchmark bench-micro fmt check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The standing real-TCP cluster benchmark (benchmark/README.md), e.g.
# make benchmark ARGS='-workload write_quorum -seed 1 -out /tmp/a.json'
benchmark:
	bash benchmark/run.sh $(ARGS)

# Hot-path micro-benchmarks with allocation counts (E8 backing data).
bench-micro:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/memstore/ ./internal/wire/ ./internal/kv/ ./internal/transport/ ./internal/quorum/

fmt:
	gofmt -l -w .

# What CI runs.
check: build vet race
