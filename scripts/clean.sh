#!/usr/bin/env bash
# Purge generated caches: the sweep-engine result cache (.repro_cache/)
# plus Python bytecode and pytest state.  The committed result documents
# (*_results.json) are tracked artifacts and are kept.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ -d .repro_cache ]; then
  count=$(find .repro_cache -name '*.json' | wc -l)
  rm -rf .repro_cache
  echo "removed .repro_cache/ (${count} cached result(s))"
else
  echo ".repro_cache/ not present"
fi

find . -type d -name __pycache__ -prune -exec rm -rf {} +
rm -rf .pytest_cache .hypothesis
echo "removed bytecode and pytest caches"
