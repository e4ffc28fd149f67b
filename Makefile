# Convenience entry points; CI runs the same commands (see
# .github/workflows/ci.yml). `make lint` is the invariant gate every PR
# must pass.

GO ?= go

.PHONY: all build test race lint vet cover clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The dedicated race sweep over the concurrent packages, mirroring the
# race-sweep CI job: halt on the first report, run everything twice.
race:
	GORACE=halt_on_error=1 $(GO) test -race -count=2 ./internal/core/ ./internal/cluster/ . ./internal/serve/

# The semtree invariant analyzers, driven through `go vet -vettool` so
# test files are covered and results are cached per package. For a
# quick uncached run without the vet driver:
#   go run ./cmd/semtree-vet ./...
lint: bin/semtree-vet
	$(GO) vet -vettool=$(abspath bin/semtree-vet) ./...

bin/semtree-vet: cmd/semtree-vet/*.go internal/analysis/*.go
	$(GO) build -o $@ ./cmd/semtree-vet

vet:
	$(GO) vet ./...

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

clean:
	rm -rf bin coverage.out
