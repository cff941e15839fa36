"""report._normalize as it was: a json.dumps / json.loads round trip of the
data, keys sorted, so tuples become lists and keys become strings."""

import json


def normalize(data):
    return json.loads(json.dumps(data, sort_keys=True))
