"""Golden corpus: pickle boundary violation."""

import pickle


def thaw(blob: bytes):
    return pickle.loads(blob)  # line 7: no module may load a pickle
